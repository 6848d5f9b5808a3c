package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/relsched"
	"repro/internal/serve"
	"repro/internal/trace"
)

// batchUsage documents the batch subcommand.
const batchUsage = `usage: relsched batch [flags] [dir | graph.cg ...]

Schedules many constraint graphs concurrently on a worker pool with
memoized anchor analysis (see internal/engine). Inputs are .cg files in
the text format, given as files, directories (scanned for *.cg), or a
JSONL manifest of jobs.

flags:
  -manifest file   JSONL manifest; one {"id","path","wellpose"} object per line
  -workers n       worker-pool size (default GOMAXPROCS)
  -repeat n        schedule the whole workload n times (default 1); repeats
                   exercise the memoization layer the way what-if re-runs do
  -wellpose        repair ill-posed graphs (makeWellposed) instead of failing
  -nocache         disable memoization
  -cache n         memoization cache capacity in entries (0 = engine default)
  -timeout d       per-job timeout (e.g. 500ms)
  -mode m          anchor sets for -print: full, relevant, irredundant
  -print           print each job's offset table
  -json file       write aggregate timing statistics as JSON
  -metrics file    write the engine metrics registry (per-stage latency
                   histograms, cache/pipeline counters) as a JSON snapshot;
                   see docs/OBSERVABILITY.md for every metric
  -trace file      record per-job spans (fingerprint/cache/wellpose/analyze/
                   schedule stages, relaxation-sweep events) and write them
                   as Chrome Trace Event JSON, loadable in Perfetto or
                   chrome://tracing
  -cpuprofile file write an offline CPU profile of the batch (pprof format);
                   profiling starts just before the first job and stops when
                   the batch drains, so the profile is pure scheduling work
  -memprofile file write an offline allocation profile (pprof heap format,
                   captured after a final GC) when the batch drains
  -pprof addr      serve the debug endpoints on addr (e.g. localhost:6060)
                   for the duration of the batch: net/http/pprof, expvar at
                   /debug/vars, the live span tree at /debug/trace,
                   Prometheus text exposition at /metrics, and /healthz +
                   /readyz probes
  -hold d          keep the -pprof debug server up for d after the batch
                   drains (e.g. 30s), so external scrapers can collect the
                   final metrics before the process exits
  -log format      emit structured job-lifecycle logs to stderr: jsonl
                   (one JSON object per line) or text (human-readable)
  -log-level l     minimum log level: debug, info (default), warn, error
  -log-file file   write logs to file instead of stderr
  -flight-dir dir  enable the black-box flight recorder: every job is
                   retained in a bounded ring, and error / timeout /
                   ill-posedness / latency-outlier jobs dump a diagnostic
                   bundle (logs, span tree, stage timings, schedule
                   provenance) as JSON into dir; see docs/OBSERVABILITY.md
  -flight-threshold d
                   flight latency trigger: dump any job slower than d
  -flight-p95x f   flight adaptive trigger: dump any job slower than f ×
                   the running p95 of job durations (f > 1)
`

// manifestEntry is one line of a JSONL batch manifest. Path is resolved
// relative to the manifest file's directory.
type manifestEntry struct {
	ID       string `json:"id"`
	Path     string `json:"path"`
	WellPose bool   `json:"wellpose,omitempty"`
}

// batchStats is the aggregate report, also serialized by -json. The
// -metrics snapshot is the full-fidelity view (complete histograms); this
// struct carries the headline numbers.
type batchStats struct {
	Workers     int     `json:"workers"`
	Repeat      int     `json:"repeat"`
	Jobs        int     `json:"jobs"`
	OK          int     `json:"ok"`
	Failed      int     `json:"failed"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	// CacheEvictions counts LRU evictions (see -cache); Computes counts
	// full pipeline executions and DuplicateSuppressed counts concurrent
	// misses that shared an in-flight computation instead of recomputing,
	// so CacheHits + DuplicateSuppressed + Computes == Jobs on a batch
	// with no cancellations.
	CacheEvictions      uint64 `json:"cache_evictions"`
	Computes            uint64 `json:"computes"`
	DuplicateSuppressed uint64 `json:"duplicate_suppressed"`
	// WallNS is the end-to-end batch wall time; CPUNs sums the per-job
	// engine durations across workers.
	WallNS        int64   `json:"wall_ns"`
	CPUNs         int64   `json:"cpu_ns"`
	JobsPerSecond float64 `json:"jobs_per_second"`
	// StageP95NS maps pipeline stage (fingerprint, cache, wellpose,
	// analyze, schedule) to its p95 latency in nanoseconds.
	StageP95NS map[string]int64 `json:"stage_p95_ns"`
}

// batchStages maps the short stage names of the aggregate report to the
// engine's histogram metric names, in pipeline order.
var batchStages = []struct{ short, metric string }{
	{"fingerprint", engine.MetricStageFingerprint},
	{"cache", engine.MetricStageCache},
	{"wellpose", engine.MetricStageWellpose},
	{"analyze", engine.MetricStageAnalyze},
	{"schedule", engine.MetricStageSchedule},
}

// runBatch implements `relsched batch`.
func runBatch(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprint(os.Stderr, batchUsage) }
	manifest := fs.String("manifest", "", "JSONL job manifest")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	repeat := fs.Int("repeat", 1, "schedule the workload this many times")
	wellpose := fs.Bool("wellpose", false, "repair ill-posed graphs first")
	nocache := fs.Bool("nocache", false, "disable memoization")
	cacheCap := fs.Int("cache", 0, "memoization cache capacity (0 = engine default)")
	timeout := fs.Duration("timeout", 0, "per-job timeout")
	modeName := fs.String("mode", "irredundant", "anchor sets for -print")
	print := fs.Bool("print", false, "print each job's offset table")
	jsonPath := fs.String("json", "", "write aggregate stats JSON to this file")
	metricsPath := fs.String("metrics", "", "write a metrics registry JSON snapshot to this file")
	tracePath := fs.String("trace", "", "write a Chrome Trace Event JSON of the batch to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the batch to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile after the batch to this file")
	pprofAddr := fs.String("pprof", "", "serve the debug endpoints on this address")
	hold := fs.Duration("hold", 0, "keep the -pprof server up this long after the batch drains")
	logFormat := fs.String("log", "", "structured log format: jsonl or text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFile := fs.String("log-file", "", "write logs to this file instead of stderr")
	flightDir := fs.String("flight-dir", "", "enable the flight recorder, dumping bundles into this directory")
	flightThreshold := fs.Duration("flight-threshold", 0, "flight latency trigger: fixed duration threshold")
	flightP95x := fs.Float64("flight-p95x", 0, "flight latency trigger: multiple of the running p95 (> 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		return err
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1")
	}
	if *cacheCap < 0 {
		return fmt.Errorf("-cache must be >= 0 (0 selects the engine default, %d)", engine.DefaultCacheCapacity)
	}

	base, err := collectJobs(*manifest, fs.Args(), *wellpose)
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("no input graphs (want .cg files, a directory, or -manifest)")
	}
	jobs := make([]engine.Job, 0, len(base)*(*repeat))
	for r := 0; r < *repeat; r++ {
		jobs = append(jobs, base...)
	}

	// Tracing is on when either consumer wants spans: the -trace file or
	// the live /debug/trace endpoint. The ring is sized to hold the whole
	// batch — one root plus at most five stage spans per job — so -trace
	// files are complete rather than a most-recent window.
	var tracer *trace.Tracer
	if *tracePath != "" || *pprofAddr != "" {
		capacity := len(jobs) * 6
		if capacity < trace.DefaultCapacity {
			capacity = trace.DefaultCapacity
		}
		tracer = trace.New(trace.Options{Capacity: capacity})
	}

	logger, logCleanup, err := buildLogger(*logFormat, *logLevel, *logFile)
	if err != nil {
		return err
	}
	defer logCleanup()

	// One registry shared by the engine and the flight recorder, so a
	// bundle's metrics section carries the engine's counters and one
	// /metrics scrape covers both subsystems.
	reg := obs.NewRegistry()
	var recorder *flight.Recorder
	if *flightDir != "" {
		recorder, err = flight.New(flight.Options{
			Dir:            *flightDir,
			FixedThreshold: *flightThreshold,
			P95Factor:      *flightP95x,
			Metrics:        reg,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
	} else if *flightThreshold != 0 || *flightP95x != 0 {
		return fmt.Errorf("-flight-threshold and -flight-p95x require -flight-dir")
	}

	// CacheCapacity 0 falls through to engine.DefaultCacheCapacity, so
	// eviction behavior no longer silently depends on workload size; size
	// it explicitly with -cache when the workload's working set is known.
	e := engine.New(engine.Options{
		Workers:       *workers,
		DisableCache:  *nocache,
		JobTimeout:    *timeout,
		CacheCapacity: *cacheCap,
		Metrics:       reg,
		Tracer:        tracer,
		Logger:        logger,
		Flight:        recorder,
		// The batch report always prints the stage-p95 table (and
		// -metrics/-json export the stage histograms), so the engine
		// must stamp every job's stage boundaries, not just
		// instrumented ones.
		StageMetrics: true,
	})

	var debug *serve.HTTPServer
	if *pprofAddr != "" {
		debug, err = startDebugServer(*pprofAddr, e.Metrics(), tracer)
		if err != nil {
			return err
		}
		defer debug.Close()
		fmt.Fprintf(stdout, "debug server on http://%s (pprof at /debug/pprof/, metrics at /debug/vars and /metrics, spans at /debug/trace)\n", debug.Addr())
	} else if *hold != 0 {
		return fmt.Errorf("-hold requires -pprof")
	}

	// Offline profiles bracket only the batch itself (not input parsing or
	// report rendering), so they are directly comparable across runs and
	// feed `go tool pprof` without a live -pprof server.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	results := e.RunAll(context.Background(), jobs)
	wall := time.Since(start)

	if *cpuProfile != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live retention
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	stats := batchStats{Workers: e.Workers(), Repeat: *repeat, Jobs: len(jobs)}
	for _, res := range results {
		stats.CPUNs += res.Duration.Nanoseconds()
		if res.Err != nil {
			stats.Failed++
			fmt.Fprintf(stdout, "FAIL %-20s %v\n", res.JobID, res.Err)
			continue
		}
		stats.OK++
		hit := ""
		if res.CacheHit {
			hit = " (cached)"
		}
		fmt.Fprintf(stdout, "ok   %-20s anchors=%d iterations=%d %v%s\n",
			res.JobID, res.Info.NumAnchors(), res.Schedule.Iterations, res.Duration.Round(time.Microsecond), hit)
		if *print {
			if err := cgio.WriteOffsets(stdout, res.Schedule, mode); err != nil {
				return err
			}
		}
	}
	cs := e.Stats()
	stats.CacheHits, stats.CacheMisses, stats.HitRate = cs.Hits, cs.Misses, cs.HitRate()
	stats.CacheEvictions, stats.DuplicateSuppressed = cs.Evictions, cs.Suppressed
	stats.WallNS = wall.Nanoseconds()
	if wall > 0 {
		stats.JobsPerSecond = float64(len(jobs)) / wall.Seconds()
	}
	snap := e.Metrics().Snapshot()
	stats.Computes = snap.Counters[engine.MetricComputes]
	stats.StageP95NS = make(map[string]int64, len(batchStages))
	stageLine := ""
	for _, st := range batchStages {
		h := snap.Histograms[st.metric]
		stats.StageP95NS[st.short] = h.P95NS
		stageLine += fmt.Sprintf(" %s=%v", st.short, time.Duration(h.P95NS).Round(100*time.Nanosecond))
	}

	fmt.Fprintf(stdout, "\n%d jobs (%d ok, %d failed) on %d workers in %v — %.0f jobs/s, cache %d/%d hits (%.0f%%), %d computes (%d suppressed, %d evictions)\n",
		stats.Jobs, stats.OK, stats.Failed, stats.Workers, wall.Round(time.Microsecond),
		stats.JobsPerSecond, stats.CacheHits, stats.CacheHits+stats.CacheMisses, 100*stats.HitRate,
		stats.Computes, stats.DuplicateSuppressed, stats.CacheEvictions)
	fmt.Fprintf(stdout, "stage p95:%s\n", stageLine)

	if *jsonPath != "" {
		data, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *metricsPath != "" {
		if err := writeMetricsSnapshot(*metricsPath, e.Metrics()); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := writeTraceFile(*tracePath, tracer); err != nil {
			return err
		}
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(stdout, "trace ring dropped %d span(s); the file holds the most recent %d\n", n, tracer.Len())
		}
	}
	if recorder != nil {
		fmt.Fprintf(stdout, "flight recorder: %d dump(s) in %s\n", recorder.Dumps(), recorder.Dir())
	}
	if debug != nil && *hold > 0 {
		fmt.Fprintf(stdout, "holding debug server for %v\n", *hold)
		time.Sleep(*hold)
	}
	if stats.Failed > 0 {
		return fmt.Errorf("%d job(s) failed", stats.Failed)
	}
	return nil
}

// buildLogger resolves the -log/-log-level/-log-file flags into a
// logger and a cleanup closing the log file. An empty format disables
// logging (nil logger). Both names are checked before the log file is
// created, so a refused flag leaves an existing file as it was.
func buildLogger(format, level, file string) (*slog.Logger, func(), error) {
	cleanup := func() {}
	if format == "" {
		if file != "" {
			return nil, cleanup, fmt.Errorf("-log-file requires -log")
		}
		return nil, cleanup, nil
	}
	if format != "jsonl" && format != "text" {
		return nil, cleanup, fmt.Errorf("unknown -log format %q (want jsonl or text)", format)
	}
	lvl, ok := logx.ParseLevel(level)
	if !ok {
		return nil, cleanup, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	var w io.Writer = os.Stderr
	if file != "" {
		f, err := os.Create(file)
		if err != nil {
			return nil, cleanup, err
		}
		cleanup = func() { f.Close() }
		w = f
	}
	if format == "jsonl" {
		return slog.New(logx.NewJSONHandler(w, lvl)), cleanup, nil
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lvl})), cleanup, nil
}

// collectJobs resolves manifest entries and positional file/dir arguments
// into engine jobs, parsing each distinct graph file exactly once so
// repeated workloads share graph values (and therefore O(1) fingerprints).
func collectJobs(manifest string, args []string, wellpose bool) ([]engine.Job, error) {
	var jobs []engine.Job
	if manifest != "" {
		entries, err := readManifest(manifest)
		if err != nil {
			return nil, err
		}
		dir := filepath.Dir(manifest)
		for _, ent := range entries {
			path := ent.Path
			if !filepath.IsAbs(path) {
				path = filepath.Join(dir, path)
			}
			g, err := cgio.ParseFile(path)
			if err != nil {
				return nil, err
			}
			id := ent.ID
			if id == "" {
				id = strings.TrimSuffix(filepath.Base(path), ".cg")
			}
			jobs = append(jobs, engine.Job{ID: id, Graph: g, WellPose: ent.WellPose || wellpose})
		}
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		var paths []string
		if info.IsDir() {
			paths, err = filepath.Glob(filepath.Join(arg, "*.cg"))
			if err != nil {
				return nil, err
			}
			sort.Strings(paths)
		} else {
			paths = []string{arg}
		}
		for _, path := range paths {
			g, err := cgio.ParseFile(path)
			if err != nil {
				return nil, err
			}
			id := strings.TrimSuffix(filepath.Base(path), ".cg")
			jobs = append(jobs, engine.Job{ID: id, Graph: g, WellPose: wellpose})
		}
	}
	return jobs, nil
}

// readManifest parses a JSONL manifest, skipping blank and '#' lines.
func readManifest(path string) ([]manifestEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []manifestEntry
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var ent manifestEntry
		if err := json.Unmarshal([]byte(text), &ent); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if ent.Path == "" {
			return nil, fmt.Errorf("%s:%d: manifest entry missing \"path\"", path, line)
		}
		entries = append(entries, ent)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// writeMetricsSnapshot serializes the engine's metrics registry to path.
func writeMetricsSnapshot(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile snapshots the tracer and writes the Chrome Trace Event
// JSON to path.
func writeTraceFile(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, tracer.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startDebugServer serves the batch's diagnostic endpoints on addr via
// the shared listener lifecycle (serve.StartHTTP — the same
// graceful-shutdown helper the `relsched serve` daemon uses, extracted
// so the two cannot drift): net/http/pprof's /debug/pprof/* handlers
// and expvar's /debug/vars from the default mux, plus the shared
// observability surface (/debug/trace, /metrics, /healthz, /readyz)
// from serve.MountDebug. The non-default handlers are mounted on a
// fresh mux wrapping the default one so repeated batch runs in one
// process never double-register; /debug/trace serves a valid empty
// trace when tracing is off. Both probes answer 200 for the server's
// whole lifetime: the batch has no drain phase — readiness is "the
// listener is up".
func startDebugServer(addr string, reg *obs.Registry, tracer *trace.Tracer) (*serve.HTTPServer, error) {
	mux := http.NewServeMux()
	serve.MountDebug(mux, reg, tracer, nil)
	mux.Handle("/", http.DefaultServeMux)
	return serve.StartHTTP(addr, mux)
}

// parseMode maps a -mode flag value to an AnchorMode.
func parseMode(name string) (relsched.AnchorMode, error) {
	switch name {
	case "full":
		return relsched.FullAnchors, nil
	case "relevant":
		return relsched.RelevantAnchors, nil
	case "irredundant":
		return relsched.IrredundantAnchors, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}
