package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/randgraph"
	"repro/internal/trace"
)

// TestRunDeliversResultUnderCancellation is the regression test for the
// dropped-result bug: engine.Run used to select on ctx.Done() while
// sending a computed result, so a job accepted off the jobs channel could
// vanish when cancellation raced the send. The delivery guarantee is now
// exactly one Result per received job; callers correlating by Job.ID must
// see every accepted job again, cancelled or not.
func TestRunDeliversResultUnderCancellation(t *testing.T) {
	e := New(Options{Workers: 4, DisableCache: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	jobs := make(chan Job)
	var sent []string // IDs whose send completed, i.e. a worker received them
	producerDone := make(chan struct{})
	go func() {
		defer close(jobs)
		defer close(producerDone)
		for i := 0; ; i++ {
			job := Job{ID: fmt.Sprintf("j%d", i), Graph: buildFig2ish()}
			select {
			case jobs <- job:
				sent = append(sent, job.ID)
			case <-ctx.Done():
				return
			}
		}
	}()

	got := make(map[string]int)
	delivered := 0
	for res := range e.Run(ctx, jobs) {
		got[res.JobID]++
		delivered++
		if delivered == 3 {
			cancel()
		}
	}
	<-producerDone

	if len(got) != len(sent) || delivered != len(sent) {
		t.Fatalf("workers received %d jobs but delivered %d results for %d distinct IDs",
			len(sent), delivered, len(got))
	}
	for _, id := range sent {
		if got[id] != 1 {
			t.Errorf("job %s: %d results, want exactly 1", id, got[id])
		}
	}
}

// waitForCounter spins until the counter reaches at least want.
func waitForCounter(t *testing.T, c *obs.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want >= %d", c.Value(), want)
		}
		runtime.Gosched()
	}
}

// TestDuplicateSuppressionFollower pins the singleflight follower path
// deterministically: with a leader registered in the flight table, a
// concurrent miss on the same key must wait and share the leader's entry
// instead of recomputing, and must count as duplicate_suppressed.
func TestDuplicateSuppressionFollower(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx := context.Background()
	g := buildFig2ish()
	key := cacheKey{fp: fingerprint(g)}

	call := &flightCall{done: make(chan struct{})}
	e.cache.registerFlightForTest(key, call)

	resCh := make(chan Result, 1)
	go func() {
		resCh <- e.Schedule(ctx, Job{ID: "follower", Graph: buildFig2ish()})
	}()

	// Play the leader: compute, then wait for the follower's cache miss
	// before publishing — once the follower has missed, the live flight
	// entry forces it onto the wait path, so the suppression outcome is
	// deterministic.
	entry := e.compute(ctx, Job{Graph: g}, nil, &jobCtx{}, new(analysisEntry))
	if entry == nil || entry.err != nil {
		t.Fatalf("leader compute failed: %+v", entry)
	}
	waitForCounter(t, e.metrics.misses, 1)
	e.cache.leaderDone(key, call, entry)

	res := <-resCh
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Suppressed {
		t.Error("follower result not marked Suppressed")
	}
	if res.Schedule != entry.sched || res.Info != entry.info {
		t.Error("follower did not share the leader's entry")
	}
	if st := e.Stats(); st.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", st.Suppressed)
	}
	if got := e.Metrics().Counter(MetricDuplicateSuppressed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricDuplicateSuppressed, got)
	}
	// The follower never ran the pipeline; only the leader's compute (run
	// directly above) is counted.
	if got := e.Metrics().Counter(MetricComputes).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricComputes, got)
	}
}

// TestDuplicateSuppressionLeaderCancelled pins the retry path: when the
// leader is cancelled mid-pipeline and publishes nothing, a waiting
// follower must loop and compute for itself rather than inherit the nil
// entry or deadlock.
func TestDuplicateSuppressionLeaderCancelled(t *testing.T) {
	e := New(Options{Workers: 1})
	g := buildFig2ish()
	key := cacheKey{fp: fingerprint(g)}

	call := &flightCall{done: make(chan struct{})}
	e.cache.registerFlightForTest(key, call)

	resCh := make(chan Result, 1)
	go func() {
		resCh <- e.Schedule(context.Background(), Job{ID: "retry", Graph: buildFig2ish()})
	}()

	// Wait for the follower to miss (it is then pinned to the wait path),
	// then release the slot with no entry, as a cancelled leader would.
	waitForCounter(t, e.metrics.misses, 1)
	e.cache.leaderDone(key, call, nil)

	res := <-resCh
	if res.Err != nil || res.Schedule == nil {
		t.Fatalf("retrying follower failed: %v", res.Err)
	}
	if res.Suppressed || res.CacheHit {
		t.Errorf("retrying follower marked Suppressed=%v CacheHit=%v, want a fresh compute", res.Suppressed, res.CacheHit)
	}
	if got := e.Metrics().Counter(MetricComputes).Value(); got != 1 {
		t.Errorf("computes = %d, want 1 (the follower's own)", got)
	}
}

// TestHighWorkerLowVariety hammers the singleflight and cache layers with
// many workers racing over two distinct graph structures (the -repeat
// workload shape). Run under -race as part of tier-1. The assertions are
// interleaving-independent: every job resolves to exactly one of
// {hit, suppressed, compute}, and all equivalent jobs share one entry.
func TestHighWorkerLowVariety(t *testing.T) {
	e := New(Options{Workers: 16})
	const rounds = 100
	jobs := make([]Job, 0, 2*rounds)
	for i := 0; i < rounds; i++ {
		// Distinct graph values per job: no fingerprint memo sharing, so
		// every worker races through hashing to the cache/flight layer.
		jobs = append(jobs,
			Job{ID: fmt.Sprintf("fig2-%d", i), Graph: buildFig2ish()},
			Job{ID: fmt.Sprintf("ill-%d", i), Graph: buildIllPosed(), WellPose: true},
		)
	}
	results := e.RunAll(context.Background(), jobs)

	var fig2Sched, illSched any
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.JobID, r.Err)
		}
		which := &fig2Sched
		if jobs[i].WellPose {
			which = &illSched
		}
		if *which == nil {
			*which = r.Schedule
		} else if *which != any(r.Schedule) {
			t.Fatalf("job %s: schedule not shared across equivalent jobs", r.JobID)
		}
	}

	c := e.Metrics().Snapshot().Counters
	n := uint64(len(jobs))
	if c[MetricJobsSubmitted] != n || c[MetricJobsCompleted] != n {
		t.Errorf("submitted/completed = %d/%d, want %d/%d", c[MetricJobsSubmitted], c[MetricJobsCompleted], n, n)
	}
	if got := c[MetricCacheHits] + c[MetricDuplicateSuppressed] + c[MetricComputes]; got != n {
		t.Errorf("hits(%d) + suppressed(%d) + computes(%d) = %d, want %d",
			c[MetricCacheHits], c[MetricDuplicateSuppressed], c[MetricComputes], got, n)
	}
	if c[MetricComputes] >= n {
		t.Errorf("computes = %d, want far fewer than %d jobs", c[MetricComputes], n)
	}
}

// TestMetricsConservation is the property test of the issue: for a random
// batch, the engine's counters and histograms are conserved —
// hits + misses == lookups, completed + failed + cancelled == submitted,
// and histogram counts equal job counts.
func TestMetricsConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := randgraph.Default()
	cfg.N = 16
	for trial := 0; trial < 5; trial++ {
		var jobs []Job
		pool := make([]Job, 0, 8)
		for len(pool) < 8 {
			pool = append(pool, Job{
				ID:       fmt.Sprintf("t%d-g%d", trial, len(pool)),
				Graph:    randgraph.Generate(cfg, rng),
				WellPose: rng.Intn(2) == 0,
			})
		}
		// Random workload over the pool: repeats exercise hits and
		// suppression; ill-posed/unfeasible samples exercise failed.
		for i := 0; i < 60; i++ {
			jobs = append(jobs, pool[rng.Intn(len(pool))])
		}

		// StageMetrics: the stage-histogram conservation laws below hold
		// for engines that record stage boundaries on every job; a bare
		// (quiescent) engine records only job-level metrics — see
		// TestQuiescentStageMetrics.
		e := New(Options{Workers: 1 + rng.Intn(8), StageMetrics: true})
		e.RunAll(context.Background(), jobs)
		snap := e.Metrics().Snapshot()
		c, h := snap.Counters, snap.Histograms
		n := uint64(len(jobs))

		if c[MetricJobsSubmitted] != n {
			t.Fatalf("trial %d: submitted = %d, want %d", trial, c[MetricJobsSubmitted], n)
		}
		if got := c[MetricJobsCompleted] + c[MetricJobsFailed] + c[MetricJobsCancelled]; got != n {
			t.Errorf("trial %d: completed(%d) + failed(%d) + cancelled(%d) = %d, want %d", trial,
				c[MetricJobsCompleted], c[MetricJobsFailed], c[MetricJobsCancelled], got, n)
		}
		if c[MetricCacheHits]+c[MetricCacheMisses] != c[MetricCacheLookups] {
			t.Errorf("trial %d: hits(%d) + misses(%d) != lookups(%d)", trial,
				c[MetricCacheHits], c[MetricCacheMisses], c[MetricCacheLookups])
		}
		if got := c[MetricCacheHits] + c[MetricDuplicateSuppressed] + c[MetricComputes]; got != n {
			t.Errorf("trial %d: hits + suppressed + computes = %d, want %d", trial, got, n)
		}
		// Histogram conservation: every job is timed end-to-end and
		// fingerprinted; every lookup is timed; every compute runs the
		// well-posedness stage exactly once.
		if h[MetricJobDuration].Count != n {
			t.Errorf("trial %d: job.duration count = %d, want %d", trial, h[MetricJobDuration].Count, n)
		}
		if h[MetricStageFingerprint].Count != n {
			t.Errorf("trial %d: stage.fingerprint count = %d, want %d", trial, h[MetricStageFingerprint].Count, n)
		}
		if h[MetricStageCache].Count != c[MetricCacheLookups] {
			t.Errorf("trial %d: stage.cache count = %d, want %d lookups", trial,
				h[MetricStageCache].Count, c[MetricCacheLookups])
		}
		if h[MetricStageWellpose].Count != c[MetricComputes] {
			t.Errorf("trial %d: stage.wellpose count = %d, want %d computes", trial,
				h[MetricStageWellpose].Count, c[MetricComputes])
		}
		if h[MetricStageAnalyze].Count < h[MetricStageSchedule].Count {
			t.Errorf("trial %d: analyze ran %d times but schedule %d", trial,
				h[MetricStageAnalyze].Count, h[MetricStageSchedule].Count)
		}
		// The gauges must be back to rest after the batch.
		if g := snap.Gauges[MetricJobsInflight]; g != 0 {
			t.Errorf("trial %d: inflight = %d after batch", trial, g)
		}
		if g := snap.Gauges[MetricQueueDepth]; g != 0 {
			t.Errorf("trial %d: queue depth = %d after batch", trial, g)
		}
	}
}

// TestQuiescentStageMetrics pins the quiescent hot path: a bare engine
// — no tracer, no flight recorder, no debug log, StageMetrics unset —
// must not stamp stage boundaries (the engine.stage.* histograms stay
// empty) while still recording every job-level metric, and flipping any
// stage-level consumer on (here StageMetrics, and separately a tracer)
// restores the full stage histograms. This is the contract that lets
// embedded engines run within a few percent of the raw pipeline; see
// docs/PERFORMANCE.md.
func TestQuiescentStageMetrics(t *testing.T) {
	g := buildFig2ish()
	ctx := context.Background()
	const n = 6

	quiet := New(Options{Workers: 1})
	for i := 0; i < n; i++ {
		if res := quiet.Schedule(ctx, Job{Graph: g}); res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
	}
	snap := quiet.Metrics().Snapshot()
	for _, name := range []string{
		MetricStageFingerprint, MetricStageCache,
		MetricStageWellpose, MetricStageAnalyze, MetricStageSchedule,
	} {
		if got := snap.Histograms[name].Count; got != 0 {
			t.Errorf("quiescent engine: %s count = %d, want 0", name, got)
		}
	}
	if got := snap.Histograms[MetricJobDuration].Count; got != n {
		t.Errorf("quiescent engine: job.duration count = %d, want %d", got, n)
	}
	c := snap.Counters
	if c[MetricCacheHits]+c[MetricCacheMisses] != c[MetricCacheLookups] {
		t.Errorf("quiescent engine: hits(%d) + misses(%d) != lookups(%d)",
			c[MetricCacheHits], c[MetricCacheMisses], c[MetricCacheLookups])
	}
	if got := c[MetricCacheHits] + c[MetricDuplicateSuppressed] + c[MetricComputes]; got != n {
		t.Errorf("quiescent engine: hits + suppressed + computes = %d, want %d", got, n)
	}

	// Same workload with StageMetrics: every job stamps every stage.
	forced := New(Options{Workers: 1, StageMetrics: true})
	for i := 0; i < n; i++ {
		forced.Schedule(ctx, Job{Graph: g})
	}
	fsnap := forced.Metrics().Snapshot()
	if got := fsnap.Histograms[MetricStageFingerprint].Count; got != n {
		t.Errorf("StageMetrics engine: stage.fingerprint count = %d, want %d", got, n)
	}
	if got := fsnap.Histograms[MetricStageCache].Count; got != n {
		t.Errorf("StageMetrics engine: stage.cache count = %d, want %d", got, n)
	}
	if got := fsnap.Histograms[MetricStageWellpose].Count; got != fsnap.Counters[MetricComputes] {
		t.Errorf("StageMetrics engine: stage.wellpose count = %d, want %d computes",
			got, fsnap.Counters[MetricComputes])
	}

	// A sampled trace span is also a stage-level consumer: a traced
	// engine stays fully timed without StageMetrics.
	traced := New(Options{Workers: 1, Tracer: trace.New(trace.Options{})})
	for i := 0; i < n; i++ {
		traced.Schedule(ctx, Job{Graph: g})
	}
	tsnap := traced.Metrics().Snapshot()
	if got := tsnap.Histograms[MetricStageFingerprint].Count; got != n {
		t.Errorf("traced engine: stage.fingerprint count = %d, want %d", got, n)
	}
}

// TestSharedRegistry checks that two engines can aggregate into one
// caller-supplied registry.
func TestSharedRegistry(t *testing.T) {
	r := obs.NewRegistry()
	e1 := New(Options{Workers: 1, Metrics: r})
	e2 := New(Options{Workers: 1, Metrics: r})
	ctx := context.Background()
	e1.Schedule(ctx, Job{Graph: buildFig2ish()})
	e2.Schedule(ctx, Job{Graph: buildFig2ish()})
	if e1.Metrics() != r || e2.Metrics() != r {
		t.Fatal("Metrics() did not return the supplied registry")
	}
	if got := r.Counter(MetricJobsSubmitted).Value(); got != 2 {
		t.Errorf("shared submitted = %d, want 2", got)
	}
}

// TestConcurrentSameEngine drives Schedule from many goroutines directly
// (no RunAll claim loop) so the race detector sees the flight table,
// cache, and fingerprint memo under unmediated concurrency.
func TestConcurrentSameEngine(t *testing.T) {
	e := New(Options{Workers: 4})
	var wg sync.WaitGroup
	start := make(chan struct{})
	const goroutines = 8
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 20; j++ {
				res := e.Schedule(context.Background(), Job{Graph: buildFig2ish()})
				if res.Err != nil {
					errs[i] = res.Err
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	n := uint64(goroutines * 20)
	c := e.Metrics().Snapshot().Counters
	if got := c[MetricCacheHits] + c[MetricDuplicateSuppressed] + c[MetricComputes]; got != n {
		t.Errorf("hits + suppressed + computes = %d, want %d", got, n)
	}
}
