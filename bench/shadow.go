package relbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/relsched"
)

// span is one timed interval the benchmark recorded around a call into
// the program: a root per op or shadow replay, children per layer call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// child is one layer call of an op, recorded with its root.
type child struct {
	name       string
	start, end time.Time
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// op records a root span and its children.
func (rc *recorder) op(op int64, name string, start, end time.Time, children ...child) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	root := int64(len(rc.spans) + 1)
	rc.spans = append(rc.spans, span{ID: root, Op: op, Name: name,
		Start: int64(start.Sub(rc.epoch)), End: int64(end.Sub(rc.epoch))})
	for _, c := range children {
		rc.spans = append(rc.spans, span{ID: int64(len(rc.spans) + 1), Parent: root, Op: op, Name: c.name,
			Start: int64(c.start.Sub(rc.epoch)), End: int64(c.end.Sub(rc.epoch))})
	}
}

// childDurations returns, per root name, the durations of each child
// name and of the roots themselves (under the root's own name).
func (rc *recorder) childDurations() map[string]map[string][]time.Duration {
	out := map[string]map[string][]time.Duration{}
	roots := map[int64]string{}
	for _, s := range rc.spans {
		d := time.Duration(s.End - s.Start)
		if s.Parent == 0 {
			roots[s.ID] = s.Name
			if out[s.Name] == nil {
				out[s.Name] = map[string][]time.Duration{}
			}
			out[s.Name][s.Name] = append(out[s.Name][s.Name], d)
			continue
		}
		rn := roots[s.Parent]
		out[rn][s.Name] = append(out[rn][s.Name], d)
	}
	return out
}

// TreeLine is one line of the span tree a traced run prints: a root
// name, then each child and the unattributed rest, as mean µs per root.
type TreeLine struct {
	Depth  int     `json:"depth"`
	Name   string  `json:"name"`
	MeanUS float64 `json:"mean_us"`
	Count  int     `json:"count"`
}

// tree aggregates the spans: for each root name, the mean root time,
// the mean time of each child per root, and the unattributed
// remainder, so each parent equals its children plus unattributed by
// construction.
func (rc *recorder) tree() []TreeLine {
	var lines []TreeLine
	byRoot := rc.childDurations()
	rootNames := make([]string, 0, len(byRoot))
	for n := range byRoot {
		rootNames = append(rootNames, n)
	}
	sort.Strings(rootNames)
	sum := func(ds []time.Duration) time.Duration {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return t
	}
	for _, rn := range rootNames {
		kids := byRoot[rn]
		n := len(kids[rn])
		total := sum(kids[rn])
		lines = append(lines, TreeLine{Name: rn, MeanUS: us(total) / float64(n), Count: n})
		names := make([]string, 0, len(kids))
		for k := range kids {
			if k != rn {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		rest := total
		for _, k := range names {
			t := sum(kids[k])
			rest -= t
			lines = append(lines, TreeLine{Depth: 1, Name: k, MeanUS: us(t) / float64(n), Count: len(kids[k])})
		}
		lines = append(lines, TreeLine{Depth: 1, Name: "unattributed", MeanUS: us(rest) / float64(n), Count: n})
	}
	return lines
}

// write stores the spans as JSONL and as Chrome trace-event JSON.
func (rc *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var jl, chrome bytes.Buffer
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(rc.spans))
	enc := json.NewEncoder(&jl)
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
		events = append(events, event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op, Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	if err := json.NewEncoder(&chrome).Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans-"+workload+".jsonl"), jl.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), chrome.Bytes(), 0o644)
}

// shadowSample is one op replayed after the measured windows: its
// graph text (built lazily, as the what-if workload reconstructs it)
// and whether it was submitted with the well-posing repair.
type shadowSample struct {
	op       int64
	text     func() (string, error)
	wellPose bool
}

// replayShadow replays the sampled ops on fresh parses, one public call
// per span, within a quarter of the measured time. It yields the
// per-layer times the daemon and the engine do not expose to a client.
func (r *run) replayShadow(ctx context.Context) error {
	budget := time.Duration(float64(r.p.Windows) * r.p.WindowS / 4 * float64(time.Second))
	samples := append([]shadowSample(nil), r.shadow...)
	rand.New(rand.NewSource(r.p.Seed)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	var parse, fp, analyze, compute, render, sched, overhead, checkSweep []float64
	iters, bound := 0, 0
	deadline := time.Now().Add(budget)
	for i, s := range samples {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		text, err := s.text()
		if err != nil {
			return err
		}
		fresh := func() (*cg.Graph, error) {
			g, err := cgio.ParseString(text)
			if err == nil && s.wellPose {
				g, _, err = relsched.MakeWellPosed(g)
			}
			return g, err
		}
		var g [3]*cg.Graph
		for k := range g {
			if g[k], err = fresh(); err != nil {
				return err
			}
		}
		raw, err := cgio.ParseString(text)
		if err != nil {
			return err
		}
		eng := engine.New(engine.Options{})

		t0 := time.Now()
		if _, err := cgio.ParseString(text); err != nil {
			return err
		}
		t1 := time.Now()
		engine.FingerprintOf(g[0])
		t2 := time.Now()
		info, err := relsched.Analyze(g[1])
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("shadow analyze: %w", err)
		}
		sc, err := relsched.Compute(g[2])
		t4 := time.Now()
		if err != nil {
			return fmt.Errorf("shadow compute: %w", err)
		}
		var out bytes.Buffer
		if err := cgio.WriteOffsets(&out, sc, relsched.IrredundantAnchors); err != nil {
			return err
		}
		t5 := time.Now()
		res := eng.Schedule(ctx, engine.Job{Graph: raw, WellPose: s.wellPose})
		t6 := time.Now()
		if res.Err != nil {
			return fmt.Errorf("shadow schedule: %w", res.Err)
		}
		r.rec.op(s.op, "shadow", t0, t6,
			child{"parse", t0, t1}, child{"fingerprint", t1, t2}, child{"analyze", t2, t3},
			child{"compute", t3, t4}, child{"render", t4, t5}, child{"schedule", t5, t6})
		parse = append(parse, us(t1.Sub(t0)))
		fp = append(fp, us(t2.Sub(t1)))
		analyze = append(analyze, us(t3.Sub(t2)))
		compute = append(compute, us(t4.Sub(t3)))
		render = append(render, us(t5.Sub(t4)))
		sched = append(sched, us(t6.Sub(t5)))
		overhead = append(overhead, us(t6.Sub(t5)-t2.Sub(t1)-t4.Sub(t3)))
		checkSweep = append(checkSweep, us(t4.Sub(t3)-t3.Sub(t2)))
		iters += sc.Iterations
		bound += relsched.IterationBound(info)
	}
	if len(parse) == 0 {
		return fmt.Errorf("no op was sampled for replay (%d traced ops)", len(samples))
	}
	r.layerDist("cgio.parse_us.p50", "us", parse, 50)
	r.layerDist("engine.fingerprint_us.p50", "us", fp, 50)
	r.layerDist("relsched.analyze_us.p50", "us", analyze, 50)
	r.layerDist("relsched.compute_us.p50", "us", compute, 50)
	r.layerDist("cgio.render_us.p50", "us", render, 50)
	r.layerDist("cgio.render_us.p99", "us", render, 99)
	r.layerDist("engine.schedule_us.p50", "us", sched, 50)
	r.layerDist("engine.overhead_us.p50", "us", overhead, 50)
	r.layerDist("relsched.check_sweep_us.p50", "us", checkSweep, 50)
	r.layer("relsched.sweeps_per_job", "count", float64(iters)/float64(len(parse)), len(parse))
	r.layer("relsched.sweep_bound_ratio", "share", float64(iters)/float64(bound), len(parse))
	if apply, ok := r.layers["relsched.apply_us.p50"]; ok {
		// The what-if edits against a full recompute of the same graphs.
		full := r.layers["relsched.compute_us.p50"].Value
		r.layer("relsched.full_recompute_ms.p50", "ms", full/1e3, len(compute))
		r.layer("relsched.delta_speedup", "x", full/apply.Value, len(compute))
	}
	r.logf("shadow replay: %d of %d sampled ops", len(parse), len(samples))
	return nil
}
