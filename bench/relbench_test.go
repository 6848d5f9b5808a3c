package relbench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/relsched"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// buildRelsched builds the daemon under test into a test directory.
func buildRelsched(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "relsched")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/relsched").CombinedOutput()
	if err != nil {
		t.Fatalf("go build relsched: %v\n%s", err, out)
	}
	return bin
}

// benchmarkFile is BENCHMARK.json, which names the metrics the runs
// must report.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestToyRuns runs every workload at toy scale, traced, and checks the
// outputs were verified and the results follow the schema BENCHMARK.json
// declares.
func TestToyRuns(t *testing.T) {
	bench := readBenchmark(t)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if w.Why != Why[w.Name] {
			t.Errorf("%s: BENCHMARK.json gives the reason %q, the program %q", w.Name, w.Why, Why[w.Name])
		}
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, Workloads)
	}
	env := Env{Relsched: buildRelsched(t), TraceDir: t.TempDir()}
	p := ToyParams(1)
	p.Trace = true
	for _, name := range Workloads {
		t.Run(name, func(t *testing.T) {
			res, err := Run(context.Background(), name, p, env)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Mismatches != 0 || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t mismatches=%d failed=%d attempted=%d", res.Correct, res.Mismatches, res.Failed, res.Attempted)
			}
			for i, want := range bench.EndToEnd {
				if i >= len(res.EndToEnd) || res.EndToEnd[i].Name != want.Name || res.EndToEnd[i].Unit != want.Unit {
					t.Fatalf("end-to-end metrics %v do not match BENCHMARK.json %v", res.EndToEnd, bench.EndToEnd)
				}
			}
			complete := true
			for i, want := range bench.PerLayer {
				if PerLayerNames[i] != want.Name {
					t.Fatalf("per-layer metric %d is %s in BENCHMARK.json but %s here", i, want.Name, PerLayerNames[i])
				}
				m, ok := res.Metric(want.Name)
				if !ok && strings.Contains(want.Name, "p99") {
					complete = false // a p99 needs 1000 samples, more than a toy run may have
					continue
				}
				if !ok || m.Unit != want.Unit {
					t.Errorf("per-layer %s (%s): got %+v, ok=%t", want.Name, want.Unit, m, ok)
				}
			}
			for _, m := range append(res.EndToEnd, res.PerLayer...) {
				if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("metric %q unit %q breaks the naming rules", m.Name, m.Unit)
				}
			}
			for _, traced := range []bool{false, true} {
				if traced && !complete {
					continue
				}
				line, err := NewContract([]*Result{res}, traced)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				data, _ := json.Marshal(line)
				if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 4 {
					t.Fatalf("summary line %s: want exactly correct, attempted, failed, metrics", data)
				}
			}
			checkTree(t, res.Tree)
			if _, err := os.Stat(filepath.Join(env.TraceDir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkTree asserts each root equals its children plus unattributed.
func checkTree(t *testing.T, tree []TreeLine) {
	t.Helper()
	if len(tree) == 0 {
		t.Fatal("traced run printed no span tree")
	}
	var root *TreeLine
	var sum float64
	flush := func() {
		if root != nil && abs(root.MeanUS-sum) > 1e-6*max(1, abs(root.MeanUS)) {
			t.Errorf("%s: %.3f µs, but children and unattributed sum to %.3f", root.Name, root.MeanUS, sum)
		}
	}
	for i := range tree {
		if tree[i].Depth == 0 {
			flush()
			root, sum = &tree[i], 0
			continue
		}
		sum += tree[i].MeanUS
	}
	flush()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestDigestsPinTheSeed checks the same seed gives the same inputs and
// op sequence, and another seed different ones.
func TestDigestsPinTheSeed(t *testing.T) {
	for _, name := range Workloads {
		c1, o1, err := Digests(name, ToyParams(1))
		if err != nil {
			t.Fatal(err)
		}
		c2, o2, _ := Digests(name, ToyParams(1))
		c3, o3, _ := Digests(name, ToyParams(2))
		if c1 != c2 || o1 != o2 {
			t.Errorf("%s: seed 1 gave corpus %s/%s, ops %s/%s", name, c1, c2, o1, o2)
		}
		if c1 == c3 || o1 == o3 {
			t.Errorf("%s: seeds 1 and 2 share corpus %s or ops %s", name, c1, o1)
		}
	}
}

// TestOracleFailsClosed corrupts expectations and edits the oracle
// compares against, and checks each path reports the mismatch.
func TestOracleFailsClosed(t *testing.T) {
	ctx := context.Background()
	p := ToyParams(1)

	t.Run("digests", func(t *testing.T) {
		jobs, err := designJobs()
		if err != nil {
			t.Fatal(err)
		}
		j := jobs[len(jobs)-1]
		g, err := cgio.ParseString(j.text)
		if err != nil {
			t.Fatal(err)
		}
		res := engine.New(engine.Options{}).Schedule(ctx, engine.Job{Graph: g})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var table bytes.Buffer
		if err := cgio.WriteOffsets(&table, res.Schedule, relsched.IrredundantAnchors); err != nil {
			t.Fatal(err)
		}
		got, err := tableDigest(table.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != j.want || scheduleDigest(res.Schedule) != j.want {
			t.Fatal("a correct schedule does not match its expectation")
		}
		// Prefix every offset cell of the rendered table with a 9.
		bad := regexp.MustCompile(` (\d+) `).ReplaceAllString(table.String(), " 9$1 ")
		if bad == table.String() {
			t.Fatal("the table has no offset cell to alter")
		}
		if d, err := tableDigest(bad); err == nil && d == j.want {
			t.Error("an altered offset table matched the expectation")
		}
	})

	t.Run("batch", func(t *testing.T) {
		r := newRun(BatchCold, p, Env{})
		b := &batchLoad{}
		if err := b.inputs(r); err != nil {
			t.Fatal(err)
		}
		b.jobs[3].want[0] ^= 1
		if _, err := b.lap(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if r.mismatches != 1 {
			t.Fatalf("one corrupted expectation gave %d mismatches", r.mismatches)
		}
	})

	t.Run("whatif", func(t *testing.T) {
		r := newRun(WhatifEdit, p, Env{})
		l := &whatifLoad{}
		if err := l.inputs(r); err != nil {
			t.Fatal(err)
		}
		if _, err := l.setup(ctx, r); err != nil {
			t.Fatal(err)
		}
		s := l.sessions[0]
		if err := s.runWindow(ctx, l, 0, time.Now().Add(50*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if len(s.pending) == 0 {
			t.Fatal("no episode ended")
		}
		s.pending[0].final[0] ^= 1
		if n := s.check(); n != 1 {
			t.Fatalf("one corrupted final schedule gave %d mismatches", n)
		}
	})
}

// TestRefusedOpsAreOverTheLimit checks a refused edit counts toward
// ops_per_s, as a correct answer, but never as within the limit.
func TestRefusedOpsAreOverTheLimit(t *testing.T) {
	r := newRun(WhatifEdit, ToyParams(1), Env{})
	r.wins = []windowRec{{wall: time.Second, cpu: time.Millisecond}}
	fast := 10 * time.Microsecond
	r.ops = []opRec{{lat: fast}, {lat: fast}, {lat: fast, refused: true}, {lat: time.Second}}
	got := map[string]float64{}
	for _, m := range r.endToEnd(time.Millisecond, []time.Duration{time.Millisecond}) {
		got[m.Name] = m.Value
	}
	if got["ops_per_s"] != 4 || got["within_limit_share"] != 0.5 {
		t.Fatalf("ops_per_s %v, within_limit_share %v; want 4 and 0.5", got["ops_per_s"], got["within_limit_share"])
	}
}

// TestDoneOffsets checks the fast reading of GET bodies against
// encoding/json, on bodies it decodes itself and ones it hands over.
func TestDoneOffsets(t *testing.T) {
	type view struct {
		ID      string `json:"id"`
		Status  string `json:"status"`
		Offsets string `json:"offsets,omitempty"`
	}
	for _, v := range []view{
		{"a", "done", "vertex  anchor set  σ_v0\nv0      {}          -\n"},
		{"b", "done", "quote \" backslash \\ slash / tab \t <&> done"},
		{"c", "failed", ""},
		{"d", "running", "vertex"},
	} {
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, ok := doneOffsets(body)
		if ok != (v.Status == "done") || got != v.Offsets && ok {
			t.Errorf("%s: got %q, %t; want %q, %t", v.ID, got, ok, v.Offsets, v.Status == "done")
		}
	}
}
