package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/trace"
)

const illPosedText = `
vertex a unbounded
vertex x delay=2
vertex y delay=1
vertex sink delay=0
seq v0 a
seq a x
seq v0 y
seq x sink
seq y sink
max y x 5
`

func writeBatchDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range map[string]string{
		"fig2.cg":  fig2Text,
		"fig2b.cg": fig2Text,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestBatchDirectory(t *testing.T) {
	dir := writeBatchDir(t)
	jsonPath := filepath.Join(dir, "stats.json")
	var out bytes.Buffer
	err := runBatch([]string{"-repeat", "3", "-workers", "2", "-json", jsonPath, dir}, &out)
	if err != nil {
		t.Fatalf("runBatch: %v\n%s", err, out.String())
	}
	var stats batchStats
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	// 2 files × 3 repeats of identical content: exactly one job computes.
	// With two workers the others are cache hits or, when they race the
	// leader, suppressed duplicates — how many of each depends on the
	// interleaving, so assert the accounting law instead of the split.
	if stats.Jobs != 6 || stats.OK != 6 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want 6 ok jobs", stats)
	}
	if stats.Computes != 1 {
		t.Errorf("computes = %d, want 1", stats.Computes)
	}
	if got := stats.CacheHits + stats.DuplicateSuppressed + stats.Computes; got != uint64(stats.Jobs) {
		t.Errorf("hits %d + suppressed %d + computes %d = %d, want %d jobs",
			stats.CacheHits, stats.DuplicateSuppressed, stats.Computes, got, stats.Jobs)
	}
	if stats.Workers != 2 {
		t.Errorf("workers = %d, want 2", stats.Workers)
	}
	if !strings.Contains(out.String(), "(cached)") {
		t.Error("output never marked a cached result")
	}
}

func TestBatchManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig2.cg"), []byte(fig2Text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ill.cg"), []byte(illPosedText), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "jobs.jsonl")
	lines := `# comment lines and blanks are skipped
{"id": "fig2", "path": "fig2.cg"}

{"id": "repaired", "path": "ill.cg", "wellpose": true}
`
	if err := os.WriteFile(manifest, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runBatch([]string{"-manifest", manifest}, &out); err != nil {
		t.Fatalf("runBatch: %v\n%s", err, out.String())
	}
	for _, want := range []string{"ok   fig2", "ok   repaired"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBatchFailurePropagates(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ill.cg"), []byte(illPosedText), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// Without -wellpose the ill-posed graph must fail the batch.
	if err := runBatch([]string{dir}, &out); err == nil {
		t.Fatalf("ill-posed batch succeeded:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL ill") {
		t.Errorf("output missing failure line:\n%s", out.String())
	}
}

func TestBatchNoInputs(t *testing.T) {
	var out bytes.Buffer
	if err := runBatch(nil, &out); err == nil {
		t.Fatal("empty batch succeeded")
	}
}

// fig2VariantText is fig2Text with one delay changed — a distinct
// fingerprint for cache-capacity tests.
const fig2VariantText = `
vertex a unbounded
vertex v1 delay=3
vertex v2 delay=2
vertex v3 delay=5
vertex v4 delay=1
seq v0 a
seq v0 v1
seq v1 v2
seq a v3
seq v3 v4
seq v2 v4
min v0 v3 3
max v1 v2 3
`

// TestBatchMetricsSnapshot covers -metrics: the registry snapshot must
// contain per-stage histograms whose counts equal the job count, and the
// duplicate-suppression accounting must show measurably fewer computes
// than jobs on a -repeat 10 workload.
func TestBatchMetricsSnapshot(t *testing.T) {
	dir := writeBatchDir(t)
	metricsPath := filepath.Join(dir, "metrics.json")
	jsonPath := filepath.Join(dir, "stats.json")
	var out bytes.Buffer
	err := runBatch([]string{"-repeat", "10", "-workers", "4", "-metrics", metricsPath, "-json", jsonPath, dir}, &out)
	if err != nil {
		t.Fatalf("runBatch: %v\n%s", err, out.String())
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	const jobs = 20 // 2 files × 10 repeats
	for _, name := range []string{
		engine.MetricStageFingerprint,
		engine.MetricStageCache,
		engine.MetricJobDuration,
	} {
		if got := snap.Histograms[name].Count; got != jobs {
			t.Errorf("%s count = %d, want %d", name, got, jobs)
		}
	}
	c := snap.Counters
	if got := c[engine.MetricCacheHits] + c[engine.MetricDuplicateSuppressed] + c[engine.MetricComputes]; got != jobs {
		t.Errorf("hits(%d) + suppressed(%d) + computes(%d) = %d, want %d",
			c[engine.MetricCacheHits], c[engine.MetricDuplicateSuppressed], c[engine.MetricComputes], got, jobs)
	}
	// Both memoization and duplicate suppression feed this: the -repeat
	// workload must not recompute per job.
	if c[engine.MetricComputes] >= jobs {
		t.Errorf("computes = %d, want fewer than %d jobs", c[engine.MetricComputes], jobs)
	}
	// The compute-side stage histograms cover exactly the computes.
	if got := snap.Histograms[engine.MetricStageWellpose].Count; got != c[engine.MetricComputes] {
		t.Errorf("wellpose stage count = %d, want %d computes", got, c[engine.MetricComputes])
	}
	// relsched hook counters flowed through: at least one relaxation
	// sweep per compute.
	if c[engine.MetricRelaxSweeps] < c[engine.MetricComputes] {
		t.Errorf("relax sweeps = %d < computes = %d", c[engine.MetricRelaxSweeps], c[engine.MetricComputes])
	}

	var stats batchStats
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Computes != c[engine.MetricComputes] || stats.DuplicateSuppressed != c[engine.MetricDuplicateSuppressed] {
		t.Errorf("stats computes/suppressed = %d/%d, registry says %d/%d",
			stats.Computes, stats.DuplicateSuppressed, c[engine.MetricComputes], c[engine.MetricDuplicateSuppressed])
	}
	if len(stats.StageP95NS) != 5 {
		t.Errorf("stage p95 map = %v, want 5 stages", stats.StageP95NS)
	}
	if !strings.Contains(out.String(), "stage p95:") {
		t.Errorf("aggregate output missing stage p95 line:\n%s", out.String())
	}
}

// TestBatchCacheFlag covers -cache: a capacity of 1 over an alternating
// two-graph workload thrashes (every lookup misses, every insert
// evicts), while the default capacity hits on every repeat.
func TestBatchCacheFlag(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{"a.cg": fig2Text, "b.cg": fig2VariantText} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(args ...string) batchStats {
		t.Helper()
		jsonPath := filepath.Join(dir, "stats.json")
		var out bytes.Buffer
		if err := runBatch(append(args, "-json", jsonPath, dir), &out); err != nil {
			t.Fatalf("runBatch: %v\n%s", err, out.String())
		}
		var stats batchStats
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &stats); err != nil {
			t.Fatal(err)
		}
		return stats
	}

	// Capacity 1, one worker: the A,B,A,B,... order alternates keys, so
	// every job misses and every insert after the first evicts.
	thrash := run("-cache", "1", "-workers", "1", "-repeat", "3")
	if thrash.CacheHits != 0 || thrash.CacheMisses != 6 {
		t.Errorf("cache=1: hits/misses = %d/%d, want 0/6", thrash.CacheHits, thrash.CacheMisses)
	}
	if thrash.CacheEvictions != 5 {
		t.Errorf("cache=1: evictions = %d, want 5", thrash.CacheEvictions)
	}

	// Default capacity (engine.DefaultCacheCapacity): only the two first
	// encounters miss.
	def := run("-workers", "1", "-repeat", "3")
	if def.CacheHits != 4 || def.CacheMisses != 2 || def.CacheEvictions != 0 {
		t.Errorf("default cache: hits/misses/evictions = %d/%d/%d, want 4/2/0",
			def.CacheHits, def.CacheMisses, def.CacheEvictions)
	}

	var out bytes.Buffer
	if err := runBatch([]string{"-cache", "-1", dir}, &out); err == nil {
		t.Error("-cache -1 accepted")
	}
}

// TestBatchDebugServer covers -pprof wiring: the helper serves expvar
// (with the published registry), the pprof index, the live span tree,
// the Prometheus exposition, and the health probes.
func TestBatchDebugServer(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("probe").Add(7)
	reg.Histogram("lat").Observe(3 * time.Millisecond)
	tracer := trace.New(trace.Options{})
	sp := tracer.StartSpan("job")
	sp.SetStr("id", "probe")
	sp.End()
	ds, err := startDebugServer("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + ds.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "relsched_engine") || !strings.Contains(vars, `"probe":7`) {
		t.Errorf("/debug/vars missing published registry:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%.200s", idx)
	}
	var live trace.ChromeTrace
	if err := json.Unmarshal([]byte(get("/debug/trace")), &live); err != nil {
		t.Fatalf("/debug/trace is not a chrome trace: %v", err)
	}
	if len(live.TraceEvents) != 1 || live.TraceEvents[0].Name != "job" {
		t.Errorf("/debug/trace events = %+v, want the one recorded job span", live.TraceEvents)
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "relsched_probe_total 7") {
		t.Errorf("/metrics missing namespaced counter:\n%.400s", metrics)
	}
	if !strings.Contains(metrics, `relsched_lat_bucket{le="+Inf"} 1`) {
		t.Errorf("/metrics missing histogram exposition:\n%.600s", metrics)
	}
	if err := obs.LintPrometheusText(strings.NewReader(metrics)); err != nil {
		t.Errorf("/metrics fails exposition lint: %v", err)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		if body := get(probe); strings.TrimSpace(body) != "ok" {
			t.Errorf("%s = %q, want ok", probe, body)
		}
	}

	// End-to-end: the flag itself must come up (on an ephemeral port) and
	// report the address.
	dir := writeBatchDir(t)
	var out bytes.Buffer
	if err := runBatch([]string{"-pprof", "127.0.0.1:0", dir}, &out); err != nil {
		t.Fatalf("runBatch -pprof: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "debug server on http://127.0.0.1:") {
		t.Errorf("output missing debug server line:\n%s", out.String())
	}
}

// TestDebugServerShutdown pins the lifecycle fix: after Close, the port
// no longer accepts connections and the serve goroutine has exited
// (Close blocks on it). An in-flight request started before Close must
// complete — Shutdown drains rather than cuts.
func TestDebugServerShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	ds, err := startDebugServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr().String()

	// An in-flight scrape races Close; it must either complete or be
	// refused cleanly, never hang.
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		inflight <- err
	}()

	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-inflight:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request hung across Close")
	}
	// The serve goroutine exited (done closed) and the port is released.
	select {
	case <-ds.Done():
	default:
		t.Error("serve goroutine still running after Close")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still accepting connections after Close")
	}
	// Close is idempotent enough for a defer after an explicit Close.
	_ = ds.Close()
}

// TestBatchLogging covers -log/-log-level/-log-file: JSONL job lifecycle
// lines land in the file with job-correlated attributes.
func TestBatchLogging(t *testing.T) {
	dir := writeBatchDir(t)
	logPath := filepath.Join(dir, "batch.log")
	var out bytes.Buffer
	err := runBatch([]string{"-log", "jsonl", "-log-level", "debug", "-log-file", logPath, dir}, &out)
	if err != nil {
		t.Fatalf("runBatch: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var scheduled int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if m["msg"] == "job scheduled" {
			scheduled++
			if m["job"] == nil || m["level"] != "info" {
				t.Errorf("scheduled line missing attributes: %v", m)
			}
		}
	}
	if scheduled != 2 {
		t.Errorf("scheduled lines = %d, want 2:\n%s", scheduled, data)
	}

	// Every level name is accepted and gates the stream: the info
	// verdict lines appear up to info, the debug lines only at debug.
	for _, c := range []struct {
		level            string
		scheduled, debug bool
	}{
		{"debug", true, true}, {"info", true, false}, {"warn", false, false},
		{"warning", false, false}, {"error", false, false},
	} {
		path := filepath.Join(t.TempDir(), c.level+".log")
		if err := runBatch([]string{"-log", "jsonl", "-log-level", c.level, "-log-file", path, dir}, &out); err != nil {
			t.Errorf("-log-level %s: %v", c.level, err)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(data), `"msg":"job scheduled"`); got != c.scheduled {
			t.Errorf("-log-level %s: job scheduled lines = %v, want %v", c.level, got, c.scheduled)
		}
		if got := strings.Contains(string(data), `"level":"debug"`); got != c.debug {
			t.Errorf("-log-level %s: debug lines = %v, want %v", c.level, got, c.debug)
		}
	}

	// Flag validation. A refused flag leaves an existing log file as it
	// was.
	keep := filepath.Join(t.TempDir(), "keep.log")
	if err := os.WriteFile(keep, []byte("kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-log", "yaml", "-log-file", keep, dir},
		{"-log", "jsonl", "-log-level", "loud", "-log-file", keep, dir},
		{"-log-file", keep, dir},
	} {
		if err := runBatch(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
		if data, err := os.ReadFile(keep); err != nil || string(data) != "kept\n" {
			t.Errorf("%v: log file = %q (err %v), want it unchanged", args, data, err)
		}
	}
}

// TestBatchFlightRecorder covers -flight-dir end to end: an ill-posed
// job in the batch dumps a valid bundle, and the dump count reaches the
// aggregate output.
func TestBatchFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig2.cg"), []byte(fig2Text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ill.cg"), []byte(illPosedText), 0o644); err != nil {
		t.Fatal(err)
	}
	flightDir := filepath.Join(dir, "flight")
	var out bytes.Buffer
	err := runBatch([]string{"-flight-dir", flightDir, "-workers", "1", dir}, &out)
	if err == nil {
		t.Fatal("batch with an ill-posed job succeeded")
	}
	bundles, err := filepath.Glob(filepath.Join(flightDir, "flight-*.json"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles = %v (err %v), want exactly 1", bundles, err)
	}
	data, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var b flight.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if b.Trigger != flight.TriggerIllPosed || b.Job.JobID != "ill" {
		t.Errorf("bundle trigger/job = %q/%q", b.Trigger, b.Job.JobID)
	}
	if !strings.Contains(out.String(), "flight recorder: 1 dump(s)") {
		t.Errorf("output missing flight summary:\n%s", out.String())
	}

	// Trigger flags without a directory are rejected.
	if err := runBatch([]string{"-flight-p95x", "3", dir}, &out); err == nil ||
		!strings.Contains(err.Error(), "-flight-dir") {
		t.Errorf("-flight-p95x without -flight-dir: %v", err)
	}
	// -hold without -pprof is rejected.
	if err := runBatch([]string{"-hold", "1s", dir}, &out); err == nil ||
		!strings.Contains(err.Error(), "-pprof") {
		t.Errorf("-hold without -pprof: %v", err)
	}
}
