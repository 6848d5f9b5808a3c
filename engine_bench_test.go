package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// engineBenchArtifact is the schema of BENCH_engine.json: the measured
// comparison of sequential, pooled, and pooled+memoized batch scheduling
// of the eight paper designs (see EXPERIMENTS.md, "Engine throughput").
type engineBenchArtifact struct {
	// Commit is the git revision the run measured ("unknown" when the
	// test runs outside a git checkout); TimeUTC stamps the run in
	// RFC3339. Together they make BENCH_history.jsonl lines comparable
	// across the PR sequence.
	Commit  string `json:"commit"`
	TimeUTC string `json:"time_utc"`

	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Workers is the engine pool size the pooled configurations ran with;
	// on a single-CPU runner it is 1 and the pooled-speedup assertion is
	// skipped (there is no parallelism to measure).
	Workers int `json:"workers"`

	Designs int `json:"designs"`
	Graphs  int `json:"graphs"`
	Rounds  int `json:"rounds"`
	Jobs    int `json:"jobs"`

	SequentialNS     int64 `json:"sequential_ns"`
	PooledNS         int64 `json:"pooled_ns"`
	PooledMemoizedNS int64 `json:"pooled_memoized_ns"`

	// ColdBaselineNS times the retained pre-optimization pipeline
	// (relsched.ReferenceCompute — closure iteration, per-job [][]int
	// tables) sequentially over the workload; ColdNS is the optimized
	// engine's uncached time over the same workload (the pooled_ns
	// measurement), and ColdSpeedup their ratio — the PR's cold-path
	// acceptance number, asserted ≥ 1.5 when GOMAXPROCS > 1.
	ColdBaselineNS int64   `json:"cold_baseline_ns"`
	ColdNS         int64   `json:"cold_ns"`
	ColdSpeedup    float64 `json:"cold_speedup"`

	// DeltaEditNS is the mean per-edit latency of Schedule.Apply on a
	// 100 000-vertex chain (a max-constraint add/remove pair near the
	// sink, averaged over many rounds); FullRecomputeNS is a cold Compute
	// of the same graph — the cost every edit paid before the delta path —
	// and DeltaSpeedup their ratio, asserted ≥ 10 (this PR's incremental
	// acceptance number; see BenchmarkDeltaEdit / BenchmarkFullRecompute).
	DeltaEditNS     int64   `json:"delta_edit_ns"`
	FullRecomputeNS int64   `json:"full_recompute_ns"`
	DeltaSpeedup    float64 `json:"delta_speedup"`

	PooledSpeedup   float64 `json:"pooled_speedup_vs_sequential"`
	MemoizedSpeedup float64 `json:"pooled_memoized_speedup_vs_sequential"`

	// PooledPairedRatio is min over paired laps of pooled_lap/sequential_lap
	// (each rep times both configurations back to back, so VM noise hits
	// both sides of a pair). It is the 1-worker parity number: at
	// Workers == 1 the pool must cost ≤ 5% over calling relsched.Compute
	// in a loop, asserted on this ratio rather than on the absolute bests
	// because the paired minimum cancels wall-clock noise the bests do not.
	PooledPairedRatio float64 `json:"pooled_paired_ratio"`

	// Per-core scaling: the cold and pooled speedups divided by the worker
	// count, so runs at different GOMAXPROCS are comparable in
	// BENCH_history.jsonl. 1.0 means perfect linear scaling of the pooled
	// win; the cold number can exceed 1.0 because it also carries the
	// single-threaded CSR/arena improvements.
	ColdSpeedupPerCore   float64 `json:"cold_speedup_per_core"`
	PooledSpeedupPerCore float64 `json:"pooled_speedup_per_core"`

	SequentialJobsPerSec float64 `json:"sequential_jobs_per_sec"`
	PooledJobsPerSec     float64 `json:"pooled_jobs_per_sec"`
	MemoizedJobsPerSec   float64 `json:"pooled_memoized_jobs_per_sec"`

	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	IdenticalSchedules bool   `json:"identical_schedules"`

	// Corpus-scale sustained ingest (see measureCorpus): CorpusJobs jobs
	// cycling over CorpusGraphs distinct randgraph graphs streamed through
	// a fresh memoizing engine — the serve-daemon traffic shape. Quantiles
	// are per-job engine latencies;
	// CorpusJobsPerSec is wall-clock throughput over the whole stream.
	CorpusGraphs     int     `json:"corpus_graphs"`
	CorpusJobs       int     `json:"corpus_jobs"`
	CorpusNS         int64   `json:"corpus_ns"`
	CorpusJobsPerSec float64 `json:"corpus_jobs_per_sec"`
	CorpusP50NS      int64   `json:"corpus_p50_ns"`
	CorpusP95NS      int64   `json:"corpus_p95_ns"`
	CorpusP99NS      int64   `json:"corpus_p99_ns"`
}

// renderOffsets renders a schedule's irredundant offset table: the bytes
// the identity checks compare.
func renderOffsets(tb testing.TB, s *relsched.Schedule) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cgio.WriteOffsets(&buf, s, relsched.IrredundantAnchors); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineIdentity runs the engine-throughput workload — the eight
// paper designs, repeated — through the sequential relsched.Compute
// loop, the uncached engine pool, and the memoizing engine pool. It
// times nothing and writes nothing. Every configuration must produce
// offset tables byte-identical to relsched.ReferenceCompute's, and the
// memoizing engine's counters must balance whatever the interleaving:
// every lookup is a hit or a miss, every job a hit, a suppressed
// duplicate, or a compute, and each distinct fingerprint is computed
// exactly once.
func TestEngineIdentity(t *testing.T) {
	jobs := paperDesignJobs(t)
	const rounds = 4
	workload := repeatJobs(jobs, rounds)
	ctx := context.Background()

	want := make([][]byte, len(workload))
	for i, j := range workload {
		s, err := relsched.ReferenceCompute(j.Graph)
		if err != nil {
			t.Fatalf("%s: reference: %v", j.ID, err)
		}
		want[i] = renderOffsets(t, s)
	}
	check := func(config string, i int, s *relsched.Schedule, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", config, workload[i].ID, err)
		}
		if !bytes.Equal(renderOffsets(t, s), want[i]) {
			t.Errorf("%s %s: offsets differ from ReferenceCompute", config, workload[i].ID)
		}
	}
	for i, j := range workload {
		s, err := relsched.Compute(j.Graph)
		check("sequential", i, s, err)
	}
	for i, r := range engine.New(engine.Options{DisableCache: true}).RunAll(ctx, workload) {
		check("pooled", i, r.Schedule, r.Err)
	}
	memo := engine.New(engine.Options{CacheCapacity: 2 * len(jobs)})
	for i, r := range memo.RunAll(ctx, workload) {
		check("memoized", i, r.Schedule, r.Err)
	}

	distinct := make(map[engine.Fingerprint]bool)
	for _, j := range jobs {
		distinct[engine.FingerprintOf(j.Graph)] = true
	}
	st := memo.Stats()
	computes := memo.Metrics().Counter(engine.MetricComputes).Value()
	n := uint64(len(workload))
	if st.Hits+st.Misses != n {
		t.Errorf("hits %d + misses %d != %d jobs", st.Hits, st.Misses, n)
	}
	if st.Hits+st.Suppressed+computes != n {
		t.Errorf("hits %d + suppressed %d + computes %d != %d jobs", st.Hits, st.Suppressed, computes, n)
	}
	if computes != uint64(len(distinct)) {
		t.Errorf("computes = %d, want %d (one per distinct fingerprint)", computes, len(distinct))
	}
}

// BenchmarkEngineArtifact measures the engine against the sequential
// baseline on the eight paper designs and writes BENCH_engine.json,
// appending the same record to BENCH_history.jsonl. The workload
// repeats every design graph `rounds` times — the what-if re-run shape
// the memoization layer targets. It runs its timed laps once whatever
// b.N is, so run it with
//
//	go test -run '^$' -bench BenchmarkEngineArtifact -benchtime 1x .
//
// It fails when the configurations' offset tables differ or a speed
// floor is missed: pooled+memoized at least 2× the sequential baseline,
// the delta edit at least 10× a full recompute, and the worker-count
// dependent pooled and cold floors below.
func BenchmarkEngineArtifact(b *testing.B) {
	jobs := paperDesignJobs(b)
	// 96 rounds puts each timed repetition near ~25ms; shorter runs sit
	// inside the wall-clock jitter of a shared runner and the ~15%
	// pipeline-level differences this artifact records would drown.
	const rounds = 96
	workload := repeatJobs(jobs, rounds)

	// Untimed warmup so the first measured configuration does not pay
	// alone for cold CPU caches and allocator growth.
	for _, j := range jobs {
		if _, err := relsched.Compute(j.Graph); err != nil {
			b.Fatalf("%s: %v", j.ID, err)
		}
	}

	// Wall-clock timing on a shared runner is noisy at the ~10ms scale of
	// this workload, so every uncached configuration is timed timingReps
	// times and the minimum kept — the best-of-N is the run least disturbed
	// by scheduler preemption and allocator growth, and all repetitions do
	// identical work. (The memoized configuration runs once: repeating it
	// would re-serve the populated cache and measure something else.) The
	// sequential and pooled laps additionally alternate within each rep —
	// see the paired loop below.
	// Every configuration retains a full corpus of schedules (that is what
	// a batch engine returns), so GC state at rep start is the other big
	// noise source: each rep begins with an explicit collection, outside
	// the clock, so no configuration is billed for a predecessor's garbage.
	const timingReps = 3
	timeBest := func(f func()) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < timingReps; rep++ {
			runtime.GC()
			start := time.Now()
			f()
			if d := time.Since(start); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}

	// Sequential baseline vs pooled engine, measured as PAIRED laps: each
	// rep times the sequential loop (one relsched.Compute per job, no
	// reuse — what every caller did before internal/engine existed) and
	// the uncached engine back to back, so runner noise (preemption,
	// frequency drift) lands on both sides of a pair about equally. The
	// artifact keeps the best lap of each side; the 1-worker parity
	// assertion below uses the minimum paired ratio, which the noise
	// largely cancels out of. Only scheduling is timed; rendering for the
	// identity check happens outside the clock in every configuration.
	pooled := engine.New(engine.Options{DisableCache: true})
	seqScheds := make([]*relsched.Schedule, len(workload))
	var pooledResults []engine.Result
	var seqNS, pooledNS time.Duration
	pairedRatio := 0.0
	// Each lap allocates ~20MB, so with GC live, whether a collection
	// cycle lands inside the sequential or the pooled lap is a coin flip
	// worth >10% of a lap — far more than the 5% parity bound below.
	// Both sides allocate identically, so GC is disabled across the
	// paired laps (the retained-heap growth is ~120MB, collected between
	// laps would not change either side's work) and restored after.
	gcPct := debug.SetGCPercent(-1)
	for rep := 0; rep < timingReps; rep++ {
		runtime.GC()
		start := time.Now()
		for i, j := range workload {
			s, err := relsched.Compute(j.Graph)
			if err != nil {
				b.Fatalf("%s: %v", j.ID, err)
			}
			seqScheds[i] = s
		}
		seqLap := time.Since(start)
		runtime.GC()
		start = time.Now()
		pooledResults = pooled.RunAll(context.Background(), workload)
		pooledLap := time.Since(start)
		if rep == 0 || seqLap < seqNS {
			seqNS = seqLap
		}
		if rep == 0 || pooledLap < pooledNS {
			pooledNS = pooledLap
		}
		if r := float64(pooledLap) / float64(seqLap); rep == 0 || r < pairedRatio {
			pairedRatio = r
		}
	}
	debug.SetGCPercent(gcPct)
	runtime.GC()
	seqOut := make([][]byte, len(workload))
	for i, s := range seqScheds {
		seqOut[i] = renderOffsets(b, s)
	}
	pooledOut := make([][]byte, len(pooledResults))
	for i, r := range pooledResults {
		if r.Err != nil {
			b.Fatalf("%s: %v", r.JobID, r.Err)
		}
		pooledOut[i] = renderOffsets(b, r.Schedule)
	}

	// Cold baseline: the seed implementation retained in
	// relsched.ReferenceCompute, run sequentially per job like the
	// pre-engine callers did. Its schedules double as the oracle for the
	// identity check below.
	refScheds := make([]*relsched.Schedule, len(workload))
	refNS := timeBest(func() {
		for i, j := range workload {
			s, err := relsched.ReferenceCompute(j.Graph)
			if err != nil {
				b.Fatalf("%s: reference: %v", j.ID, err)
			}
			refScheds[i] = s
		}
	})
	refOut := make([][]byte, len(workload))
	for i, s := range refScheds {
		refOut[i] = renderOffsets(b, s)
	}

	memo := engine.New(engine.Options{CacheCapacity: 2 * len(jobs)})
	runtime.GC()
	memoStart := time.Now()
	memoResults := memo.RunAll(context.Background(), workload)
	memoNS := time.Since(memoStart)
	memoOut := make([][]byte, len(memoResults))
	for i, r := range memoResults {
		if r.Err != nil {
			b.Fatalf("%s: %v", r.JobID, r.Err)
		}
		memoOut[i] = renderOffsets(b, r.Schedule)
	}

	deltaNS, fullNS := measureDeltaEdit(b, timeBest)
	corpus := measureCorpus(b, corpusGraphCount, corpusJobCount)

	identical := true
	for i := range workload {
		if !bytes.Equal(seqOut[i], pooledOut[i]) || !bytes.Equal(seqOut[i], memoOut[i]) ||
			!bytes.Equal(seqOut[i], refOut[i]) {
			identical = false
			b.Errorf("job %s: offsets differ across configurations (reference oracle included)", workload[i].ID)
		}
	}

	stats := memo.Stats()
	art := engineBenchArtifact{
		Commit:  gitCommit(),
		TimeUTC: time.Now().UTC().Format(time.RFC3339),

		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    pooled.Workers(),

		Designs: 8,
		Graphs:  len(jobs),
		Rounds:  rounds,
		Jobs:    len(workload),

		SequentialNS:     seqNS.Nanoseconds(),
		PooledNS:         pooledNS.Nanoseconds(),
		PooledMemoizedNS: memoNS.Nanoseconds(),

		ColdBaselineNS: refNS.Nanoseconds(),
		ColdNS:         pooledNS.Nanoseconds(),
		ColdSpeedup:    float64(refNS) / float64(pooledNS),

		DeltaEditNS:     deltaNS.Nanoseconds(),
		FullRecomputeNS: fullNS.Nanoseconds(),
		DeltaSpeedup:    float64(fullNS) / float64(deltaNS),

		PooledSpeedup:     float64(seqNS) / float64(pooledNS),
		MemoizedSpeedup:   float64(seqNS) / float64(memoNS),
		PooledPairedRatio: pairedRatio,

		ColdSpeedupPerCore:   float64(refNS) / float64(pooledNS) / float64(pooled.Workers()),
		PooledSpeedupPerCore: float64(seqNS) / float64(pooledNS) / float64(pooled.Workers()),

		SequentialJobsPerSec: float64(len(workload)) / seqNS.Seconds(),
		PooledJobsPerSec:     float64(len(workload)) / pooledNS.Seconds(),
		MemoizedJobsPerSec:   float64(len(workload)) / memoNS.Seconds(),

		CacheHits:          stats.Hits,
		CacheMisses:        stats.Misses,
		IdenticalSchedules: identical,

		CorpusGraphs:     corpus.graphs,
		CorpusJobs:       corpus.jobs,
		CorpusNS:         corpus.elapsed.Nanoseconds(),
		CorpusJobsPerSec: float64(corpus.jobs) / corpus.elapsed.Seconds(),
		CorpusP50NS:      corpus.p50.Nanoseconds(),
		CorpusP95NS:      corpus.p95.Nanoseconds(),
		CorpusP99NS:      corpus.p99.Nanoseconds(),
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	// The history is append-only and forever: refuse to extend it with a
	// malformed artifact (missing cold-path fields would silently break
	// the regression time series).
	if err := validateColdFields(art); err != nil {
		b.Fatalf("refusing to append to BENCH_history.jsonl: %v", err)
	}
	if err := appendBenchHistory("BENCH_history.jsonl", art); err != nil {
		b.Fatal(err)
	}
	b.Logf("sequential %v, pooled %v (%.1fx), pooled+memoized %v (%.1fx), cold baseline %v (cold %.2fx), cache %d/%d hits",
		seqNS, pooledNS, art.PooledSpeedup, memoNS, art.MemoizedSpeedup, refNS, art.ColdSpeedup, stats.Hits, stats.Hits+stats.Misses)
	b.Logf("delta edit %v vs full recompute %v (%.0fx)", deltaNS, fullNS, art.DeltaSpeedup)
	b.Logf("corpus %d jobs over %d graphs: %v (%.0f jobs/s), p50 %v p95 %v p99 %v",
		corpus.jobs, corpus.graphs, corpus.elapsed, art.CorpusJobsPerSec,
		corpus.p50, corpus.p95, corpus.p99)

	if art.DeltaSpeedup < 10 {
		b.Errorf("delta speedup %.1fx < 10x acceptance floor (edit %v, recompute %v)",
			art.DeltaSpeedup, deltaNS, fullNS)
	}

	if art.MemoizedSpeedup < 2 {
		b.Errorf("pooled+memoized speedup %.2fx < 2x acceptance floor", art.MemoizedSpeedup)
	}
	// The pure pooling win only exists when the engine actually resolved
	// more than one worker (GOMAXPROCS and NumCPU both > 1); with a single
	// worker the pool adds coordination overhead with nothing to overlap,
	// so the speedup floors would be noise. What a 1-worker run must prove
	// instead is parity: RunAll runs jobs inline with no goroutine hop, so
	// the pool may cost at most 5% over the bare sequential loop —
	// asserted on the noise-cancelling paired ratio.
	if art.Workers > 1 {
		if art.PooledSpeedup <= 1 {
			b.Errorf("pooled speedup %.2fx on %d workers (GOMAXPROCS=%d); want > 1x",
				art.PooledSpeedup, art.Workers, art.GOMAXPROCS)
		}
		if art.PooledSpeedupPerCore < 1.0 {
			b.Errorf("pooled speedup per core %.2fx on %d workers; want >= 1.0",
				art.PooledSpeedupPerCore, art.Workers)
		}
	} else {
		b.Logf("1 worker: skipping pooled-speedup floors, asserting inline parity (paired ratio %.3f)", pairedRatio)
		if pairedRatio > 1.05 {
			b.Errorf("pooled/sequential paired ratio %.3f > 1.05 at 1 worker: the inline RunAll path regressed",
				pairedRatio)
		}
	}
	// Cold-path acceptance: uncached engine scheduling of the corpus must
	// beat the retained pre-optimization baseline by ≥ 1.5× once the
	// worker pool has real CPUs; at 1 worker the numbers are still
	// recorded (the single-threaded CSR/arena win is visible there too)
	// but the floor is not asserted.
	if art.Workers > 1 {
		if art.ColdSpeedup < 1.5 {
			b.Errorf("cold speedup %.2fx < 1.5x acceptance floor (baseline %v, cold %v)",
				art.ColdSpeedup, time.Duration(art.ColdBaselineNS), time.Duration(art.ColdNS))
		}
	} else {
		b.Logf("1 worker: recording cold speedup %.2fx without asserting the 1.5x floor", art.ColdSpeedup)
	}
}

// validateColdFields guards the BENCH_history.jsonl append: every line
// must carry the cold-path measurements with sane values.
func validateColdFields(art engineBenchArtifact) error {
	switch {
	case art.ColdBaselineNS <= 0:
		return fmt.Errorf("cold_baseline_ns = %d, want > 0", art.ColdBaselineNS)
	case art.ColdNS <= 0:
		return fmt.Errorf("cold_ns = %d, want > 0", art.ColdNS)
	case art.ColdSpeedup <= 0:
		return fmt.Errorf("cold_speedup = %g, want > 0", art.ColdSpeedup)
	case art.DeltaEditNS <= 0:
		return fmt.Errorf("delta_edit_ns = %d, want > 0", art.DeltaEditNS)
	case art.FullRecomputeNS <= 0:
		return fmt.Errorf("full_recompute_ns = %d, want > 0", art.FullRecomputeNS)
	case art.DeltaSpeedup <= 0:
		return fmt.Errorf("delta_speedup = %g, want > 0", art.DeltaSpeedup)
	case art.ColdSpeedupPerCore <= 0:
		return fmt.Errorf("cold_speedup_per_core = %g, want > 0", art.ColdSpeedupPerCore)
	case art.PooledSpeedupPerCore <= 0:
		return fmt.Errorf("pooled_speedup_per_core = %g, want > 0", art.PooledSpeedupPerCore)
	case !art.IdenticalSchedules:
		return fmt.Errorf("identical_schedules = false: offsets diverged from the oracle")
	case art.PooledPairedRatio <= 0:
		return fmt.Errorf("pooled_paired_ratio = %g, want > 0", art.PooledPairedRatio)
	case art.CorpusJobs <= 0 || art.CorpusGraphs <= 0:
		return fmt.Errorf("corpus_jobs = %d, corpus_graphs = %d, want > 0", art.CorpusJobs, art.CorpusGraphs)
	case art.CorpusNS <= 0 || art.CorpusJobsPerSec <= 0:
		return fmt.Errorf("corpus_ns = %d, corpus_jobs_per_sec = %g, want > 0", art.CorpusNS, art.CorpusJobsPerSec)
	case art.CorpusP50NS <= 0 || art.CorpusP50NS > art.CorpusP95NS || art.CorpusP95NS > art.CorpusP99NS:
		return fmt.Errorf("corpus quantiles not ordered: p50 %d p95 %d p99 %d",
			art.CorpusP50NS, art.CorpusP95NS, art.CorpusP99NS)
	}
	return nil
}

// Corpus-scale sustained ingest: corpusJobCount jobs cycling over
// corpusGraphCount distinct random graphs. The graph count is sized so
// the first lap over the corpus is all cold misses (real scheduling
// through the cache's miss/insert/evict path) and the remaining
// laps are all hits — the steady-state mix a long-running serve daemon
// settles into.
const (
	corpusGraphCount = 8192
	corpusJobCount   = 100_000
)

// corpusStats is one measureCorpus run.
type corpusStats struct {
	graphs, jobs  int
	elapsed       time.Duration
	p50, p95, p99 time.Duration
}

// measureCorpus streams jobsN jobs over graphsN distinct feasible
// randgraph graphs through a fresh memoizing engine, one Schedule call
// per job — the sustained-ingest shape of the serve daemon's schedule
// workers. Per-job latency quantiles come from the engine's own Duration
// measurements; throughput is wall clock over the whole stream. Graph
// generation happens before the clock starts.
func measureCorpus(tb testing.TB, graphsN, jobsN int) corpusStats {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	cfg := randgraph.Default()
	graphs := make([]*cg.Graph, graphsN)
	for i := 0; i < graphsN; {
		g := randgraph.Generate(cfg, rng)
		// The generator aims for feasible well-posed graphs but a rare
		// constraint placement slips through; the corpus wants clean
		// cache traffic, so filter those out before the clock starts.
		if _, err := relsched.Compute(g); err != nil {
			continue
		}
		graphs[i] = g
		i++
	}
	e := engine.New(engine.Options{CacheCapacity: 2 * graphsN})
	ctx := context.Background()
	lat := make([]int64, jobsN)
	runtime.GC()
	start := time.Now()
	for i := 0; i < jobsN; i++ {
		res := e.Schedule(ctx, engine.Job{ID: "corpus", Graph: graphs[i%graphsN]})
		if res.Err != nil {
			tb.Fatalf("corpus job %d: %v", i, res.Err)
		}
		lat[i] = res.Duration.Nanoseconds()
	}
	elapsed := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		return time.Duration(lat[int(p*float64(len(lat)-1))])
	}
	return corpusStats{
		graphs:  graphsN,
		jobs:    jobsN,
		elapsed: elapsed,
		p50:     q(0.50),
		p95:     q(0.95),
		p99:     q(0.99),
	}
}

// BenchmarkEngineCorpus is the standalone view of the same workload for
// `go test -bench`: one iteration is the full corpus stream, with
// throughput and tail latency reported as custom metrics.
func BenchmarkEngineCorpus(b *testing.B) {
	b.ReportAllocs()
	var st corpusStats
	for i := 0; i < b.N; i++ {
		st = measureCorpus(b, corpusGraphCount, corpusJobCount)
	}
	b.ReportMetric(float64(st.jobs)/st.elapsed.Seconds(), "jobs/s")
	b.ReportMetric(float64(st.p50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(st.p99.Nanoseconds()), "p99-ns")
}

// measureDeltaEdit times the incremental-edit acceptance workload: a
// max-constraint add/remove pair near the sink of a 100 000-vertex chain
// through Schedule.Apply (per-edit mean over deltaRounds×2 edits), against
// a cold relsched.Compute of the same graph. Both sides use the caller's
// best-of-N timer.
func measureDeltaEdit(t testing.TB, timeBest func(func()) time.Duration) (deltaNS, fullNS time.Duration) {
	t.Helper()
	g := randgraph.Chain(100_000, 20_000)
	fullNS = timeBest(func() {
		if _, err := relsched.Compute(g); err != nil {
			t.Fatal(err)
		}
	})
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	u, v := cg.VertexID(n-3), cg.VertexID(n-2)
	const deltaRounds = 100
	deltaNS = timeBest(func() {
		for i := 0; i < deltaRounds; i++ {
			if s, err = s.Apply(cg.AddMaxEdit(u, v, 2)); err != nil {
				t.Fatal(err)
			}
			if s, err = s.Apply(cg.RemoveEdgeEdit(s.G.M() - 1)); err != nil {
				t.Fatal(err)
			}
		}
	}) / (2 * deltaRounds)
	return deltaNS, fullNS
}

// gitCommit resolves the current git revision, "unknown" outside a
// checkout (a source tarball, `go test` against the module cache).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendBenchHistory appends the artifact as one JSONL line. The latest
// snapshot file (BENCH_engine.json) stays the canonical current view;
// the history accumulates one line per run so regressions are visible
// as a time series across commits.
func appendBenchHistory(path string, art engineBenchArtifact) error {
	line, err := json.Marshal(art)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
