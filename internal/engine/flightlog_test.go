package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/trace"
)

// syncBuffer is a goroutine-safe strings.Builder for log assertions.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

func TestEngineJobLogging(t *testing.T) {
	var buf syncBuffer
	e := New(Options{
		Workers: 1,
		Logger:  slog.New(logx.NewJSONHandler(&buf, slog.LevelDebug)),
	})
	ctx := context.Background()
	if res := e.Schedule(ctx, Job{ID: "good", Graph: buildFig2ish()}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := e.Schedule(ctx, Job{ID: "bad", Graph: buildIllPosed()}); res.Err == nil {
		t.Fatal("ill-posed graph scheduled")
	}
	lines := buf.lines(t)
	var sawAccepted, sawScheduled, sawFailed bool
	for _, m := range lines {
		switch m["msg"] {
		case "job accepted":
			sawAccepted = true
			if m["fingerprint"] == nil || m["fingerprint"] == "" {
				t.Errorf("accepted line missing fingerprint: %v", m)
			}
		case "job scheduled":
			sawScheduled = true
			if m["job"] != "good" {
				t.Errorf("scheduled line job = %v", m["job"])
			}
			if m["level"] != "info" {
				t.Errorf("scheduled line level = %v", m["level"])
			}
		case "job failed":
			sawFailed = true
			if m["job"] != "bad" || m["kind"] != "illposed" || m["level"] != "error" {
				t.Errorf("failed line = %v", m)
			}
		}
	}
	if !sawAccepted || !sawScheduled || !sawFailed {
		t.Errorf("lifecycle lines missing (accepted=%v scheduled=%v failed=%v):\n%s",
			sawAccepted, sawScheduled, sawFailed, buf.String())
	}
}

// TestEngineFlightDump drives an ill-posed job through a fully wired
// engine (logger + tracer + recorder sharing the metrics registry) and
// checks the dumped bundle carries every evidence layer.
func TestEngineFlightDump(t *testing.T) {
	dir := t.TempDir()
	tracer := trace.New(trace.Options{})
	// One registry shared by engine and recorder, so bundles carry the
	// engine's counters and /metrics scrapes both — the batch CLI wiring.
	reg := obs.NewRegistry()
	rec, err := flight.New(flight.Options{Dir: dir, MinInterval: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	e := New(Options{
		Workers: 1,
		Metrics: reg,
		Tracer:  tracer,
		Logger:  slog.New(logx.NewJSONHandler(&buf, slog.LevelInfo)),
		Flight:  rec,
	})
	ctx := context.Background()
	// A healthy job first: ring context for the bundle, no dump.
	if res := e.Schedule(ctx, Job{ID: "ok", Graph: buildFig2ish()}); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := e.Schedule(ctx, Job{ID: "doomed", Graph: buildIllPosed()})
	if res.Err == nil {
		t.Fatal("ill-posed graph scheduled")
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("bundles = %v (err %v), want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var b flight.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if b.Trigger != flight.TriggerIllPosed {
		t.Errorf("trigger = %q, want illposed", b.Trigger)
	}
	if b.Job.JobID != "doomed" || b.Job.Fingerprint == "" {
		t.Errorf("job identity = %+v", b.Job)
	}
	if b.Job.ErrKind != flight.ErrKindIllPosed {
		t.Errorf("err kind = %q", b.Job.ErrKind)
	}
	if len(b.Job.Spans) == 0 {
		t.Error("bundle has no span tree")
	} else {
		names := make(map[string]bool)
		for _, sp := range b.Job.Spans {
			names[sp.Name] = true
		}
		if !names["job"] || !names["wellpose"] {
			t.Errorf("span tree missing job/wellpose: %v", names)
		}
	}
	if _, ok := b.Job.StageNS["wellpose"]; !ok {
		t.Errorf("stage timings missing wellpose: %v", b.Job.StageNS)
	}
	if len(b.Job.Logs) == 0 {
		t.Error("bundle has no captured logs")
	}
	if b.Metrics == nil || b.Metrics.Counters[MetricJobsFailed] != 1 {
		t.Errorf("bundle metrics missing engine counters: %+v", b.Metrics)
	}
	if len(b.Recent) == 0 || b.Recent[len(b.Recent)-1].JobID != "ok" {
		t.Errorf("bundle recent = %+v, want the prior healthy job", b.Recent)
	}
	// The recorder registers its counters in the engine's registry.
	if got := e.Metrics().Counter(flight.MetricDumps).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", flight.MetricDumps, got)
	}
	// An ill-posed verdict produces no schedule, so no provenance.
	if b.Job.Provenance != nil {
		t.Errorf("unexpected provenance on an ill-posed job: %s", b.Job.Provenance)
	}
}

// TestEngineFlightLatencyProvenance forces a latency dump on a healthy
// job (threshold 0ns is rejected, so use 1ns — every job exceeds it)
// and checks the bundle carries schedule provenance.
func TestEngineFlightLatencyProvenance(t *testing.T) {
	dir := t.TempDir()
	rec, err := flight.New(flight.Options{Dir: dir, FixedThreshold: time.Nanosecond, MinInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, Flight: rec})
	res := e.Schedule(context.Background(), Job{ID: "slowish", Graph: buildFig2ish()})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("bundles = %d, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var b flight.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Trigger != flight.TriggerLatency {
		t.Errorf("trigger = %q", b.Trigger)
	}
	if b.Job.Provenance == nil {
		t.Fatal("latency bundle missing provenance")
	}
	var prov struct {
		Vertices int `json:"vertices"`
		Critical int `json:"critical"`
		Entries  []struct {
			Vertex string `json:"vertex"`
			Slack  int    `json:"slack"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b.Job.Provenance, &prov); err != nil {
		t.Fatalf("provenance is not valid JSON: %v\n%s", err, b.Job.Provenance)
	}
	if prov.Vertices == 0 || prov.Critical == 0 || len(prov.Entries) == 0 {
		t.Errorf("provenance empty: %+v", prov)
	}
	// Captured logs ride along even though no Logger was configured.
	if len(b.Job.Logs) == 0 {
		t.Error("bundle has no captured logs despite nil engine Logger")
	}
}

// TestEngineFlightCaptureConcurrent runs good and ill-posed jobs on
// four workers with a debug-level live stream and a recorder that dumps
// every ill-posed job: each bundle's logs carry only its own job, and
// the live stream holds exactly one verdict line per job.
func TestEngineFlightCaptureConcurrent(t *testing.T) {
	dir := t.TempDir()
	var buf syncBuffer
	logger := slog.New(logx.NewJSONHandler(&buf, slog.LevelDebug))
	rec, err := flight.New(flight.Options{Dir: dir, MinInterval: -1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 4, Logger: logger, Flight: rec})
	var jobs []Job
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			jobs = append(jobs, Job{ID: fmt.Sprintf("good-%d", i), Graph: buildFig2ish()})
		} else {
			jobs = append(jobs, Job{ID: fmt.Sprintf("bad-%d", i), Graph: buildIllPosed()})
		}
	}
	for _, res := range e.RunAll(context.Background(), jobs) {
		if bad := strings.HasPrefix(res.JobID, "bad-"); bad != (res.Err != nil) {
			t.Errorf("%s: err = %v", res.JobID, res.Err)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) != len(jobs)/2 {
		t.Fatalf("bundles = %d (err %v), want %d", len(files), err, len(jobs)/2)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var b flight.Bundle
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(b.Job.Logs) == 0 {
			t.Errorf("%s: no captured logs", b.Job.JobID)
		}
		for _, line := range b.Job.Logs {
			var m map[string]any
			if err := json.Unmarshal(line, &m); err != nil {
				t.Fatalf("%s: captured line is not JSON: %v", b.Job.JobID, err)
			}
			if m["job"] != b.Job.JobID {
				t.Errorf("bundle of %s carries a line of %v: %s", b.Job.JobID, m["job"], line)
			}
		}
	}

	verdicts := make(map[any]int)
	for _, m := range buf.lines(t) {
		if m["msg"] == "job scheduled" || m["msg"] == "job failed" {
			verdicts[m["job"]]++
		}
	}
	for _, j := range jobs {
		if verdicts[j.ID] != 1 {
			t.Errorf("%s: %d verdict lines in the live stream, want 1", j.ID, verdicts[j.ID])
		}
	}
	if len(verdicts) != len(jobs) {
		t.Errorf("verdict lines name %d jobs, want %d", len(verdicts), len(jobs))
	}
}

func TestClassifyErrKind(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: time.Nanosecond})
	res := e.Schedule(context.Background(), Job{ID: "t", Graph: buildFig2ish()})
	if kind := classifyErrKind(res.Err); kind != flight.ErrKindTimeout {
		t.Errorf("timeout classified as %q (err %v)", kind, res.Err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = e.Schedule(ctx, Job{ID: "c", Graph: buildFig2ish()})
	if kind := classifyErrKind(res.Err); kind != flight.ErrKindCanceled {
		t.Errorf("cancellation classified as %q (err %v)", kind, res.Err)
	}
	if kind := classifyErrKind(nil); kind != "" {
		t.Errorf("nil error classified as %q", kind)
	}
}

// TestScheduleDisabledObservabilityZeroAllocs pins that an engine with
// no logger and no flight recorder pays nothing for them: the per-job
// allocation count must not regress when the fields are nil. The cache
// serves the steady state, so the pin covers the hot path (fingerprint
// memo hit + cache hit).
func TestScheduleDisabledObservabilityZeroAllocs(t *testing.T) {
	e := New(Options{Workers: 1})
	g := buildFig2ish()
	ctx := context.Background()
	e.Schedule(ctx, Job{ID: "warm", Graph: g}) // fill cache + the graph's fingerprint memo
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(ctx, Job{ID: "warm", Graph: g})
	})
	// The baseline path allocates a handful of objects (result channel
	// bookkeeping, context). The pin is a ceiling: logging/flight must
	// not add to it when disabled.
	if allocs > 8 {
		t.Errorf("cache-hit Schedule allocates %.1f objects/run with observability disabled", allocs)
	}
}
