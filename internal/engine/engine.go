// Package engine is a concurrent batch front end to the relative
// scheduler: it executes streams of scheduling jobs (constraint graph +
// options) on a bounded worker pool and memoizes the invariant analysis —
// anchor sets (Definitions 4/9/11), the well-posedness verdict
// (Theorem 2), and the minimum relative schedule itself — behind a
// canonical graph fingerprint.
//
// The motivation is the workload shape of iterative synthesis: what-if
// constraint exploration, design-space sweeps, and serving many client
// graphs re-schedule structurally identical graphs over and over, and
// every call to relsched.Compute repeats the anchor-set analysis and the
// iterative sweeps of Theorem 8 from scratch. The engine computes each
// distinct graph once and answers repeats from an LRU cache in
// O(|V|+|E|) hashing time (O(1) when the graph value itself is
// resubmitted: the fingerprint stays on the graph until its next
// mutation). Scheduling is deterministic, so cached results are
// bit-for-bit identical to freshly computed ones.
//
// Concurrency model, cancellation semantics, and the invariants that make
// shared read-only cg.Graph access race-free are documented in
// docs/CONCURRENCY.md.
package engine

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cg"
	"repro/internal/flight"
	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/relsched"
	"repro/internal/trace"
)

// Options configures an Engine. The zero value is usable: GOMAXPROCS
// workers, a DefaultCacheCapacity-entry cache, no per-job timeout.
type Options struct {
	// Workers is the size of the worker pool. Values <= 0 select
	// min(runtime.GOMAXPROCS(0), runtime.NumCPU()) — one worker per CPU
	// the pool can actually run on, the right default for the CPU-bound
	// scheduling pipeline. When the effective pool size is 1, RunAll
	// skips the pool machinery and executes jobs inline, so a
	// single-core batch pays no goroutine tax over calling Schedule in a
	// loop; Run always starts its workers.
	Workers int
	// CacheCapacity bounds the number of memoized analyses (LRU
	// eviction). Values <= 0 select DefaultCacheCapacity.
	CacheCapacity int
	// DisableCache turns memoization off; every job recomputes from
	// scratch. Intended for benchmarking the cache itself and for
	// callers that know their stream never repeats a graph.
	DisableCache bool
	// JobTimeout is the default per-job deadline; Job.Timeout overrides
	// it. Zero means no deadline. See Engine.Schedule for the
	// checkpointed cancellation semantics.
	JobTimeout time.Duration
	// Metrics is the registry the engine records into; nil creates a
	// private registry, retrievable via Engine.Metrics. Supply a shared
	// registry to aggregate several engines (or co-publish with other
	// subsystems) under one snapshot.
	Metrics *obs.Registry
	// Tracer records one root span per job with child spans per pipeline
	// stage and instant events for the relsched inner loops (see
	// internal/trace and docs/OBSERVABILITY.md). Nil disables tracing at
	// zero cost: the hot path performs no allocations and no atomic
	// operations for the disabled tracer.
	Tracer *trace.Tracer
	// Logger receives job-lifecycle records (submitted outcome, cache
	// disposition, verdicts) with job-correlated attributes. Nil disables
	// logging; the disabled path is allocation-free.
	Logger *slog.Logger
	// Flight is the black-box flight recorder: every job outcome is
	// appended to its ring, and error/timeout/ill-posedness/latency-
	// outlier jobs dump a diagnostic bundle with the job's log lines,
	// span tree, stage timings, and schedule provenance (see
	// internal/flight and docs/OBSERVABILITY.md). Nil disables recording.
	// When Flight is set, per-job logs are captured for bundles even if
	// Logger is nil.
	Flight *flight.Recorder
	// Prof is the self-profiling plane: with labeling enabled, every job
	// runs under pprof labels {tenant, design, mode} with a nested
	// {stage} label per pipeline stage, so CPU profiles attribute hot
	// time to fingerprint/wellpose/analyze/schedule/delta per tenant;
	// with capture configured, flight dumps also trigger a rate-limited
	// CPU+heap profile capture cross-linked from the bundle JSON. Nil
	// (or a label-disabled profiler) keeps the scheduling hot path
	// allocation-free.
	Prof *prof.Profiler
	// StageMetrics forces the per-stage latency histograms
	// (engine.stage.*) to be recorded for every job. By default stage
	// boundaries are only stamped for *instrumented* jobs — ones with a
	// sampled trace span, a flight recorder, pprof stage labels, or
	// debug logging — because the six clock reads and four histogram
	// observations per job are a measurable tax on microsecond-scale
	// graphs (see docs/PERFORMANCE.md). Set this when the registry is
	// exported to a consumer that expects complete stage histograms
	// (the batch CLI's stage table, the serve daemon's /metrics).
	// Job-level metrics — counters, gauges, engine.job.duration — are
	// always recorded regardless.
	StageMetrics bool
}

// DefaultCacheCapacity is the cache size used when Options.CacheCapacity
// is unset.
const DefaultCacheCapacity = 1024

// Job is one scheduling request.
type Job struct {
	// ID is an opaque caller label echoed in the Result.
	ID string
	// Graph is the constraint graph to schedule. It must not be mutated
	// for the lifetime of the batch; frozen graphs satisfy this by
	// construction (the pipeline freezes unfrozen graphs on first use).
	Graph *cg.Graph
	// WellPose applies MakeWellPosed (Theorem 7 minimal serialization)
	// before scheduling instead of rejecting ill-posed graphs.
	WellPose bool
	// Timeout overrides Options.JobTimeout for this job when positive.
	Timeout time.Duration
	// Parent, when set, becomes the parent of the job's "job" span, so a
	// request-scoped root span opened by a serving layer owns the whole
	// intake → schedule tree and trace exports group them together. Nil
	// keeps the job span a root (batch workloads). The parent may already
	// be ended: only its immutable identity is read.
	Parent *trace.Span
	// RequestID is the serving layer's request correlation ID; it is
	// attached to the job span and to latency exemplars so a scrape
	// outlier resolves back to the originating API request. Empty for
	// batch workloads.
	RequestID string
	// Tenant and Design are profile-attribution labels (see Options.Prof):
	// the submitting tenant and the design/workload family the graph
	// belongs to. Both optional; empty values are labeled "none".
	Tenant string
	Design string
}

// Result is the outcome of one Job.
type Result struct {
	// JobID echoes Job.ID.
	JobID string
	// Graph is the graph the schedule was computed on: the engine's
	// canonical graph for the job's fingerprint. For WellPose jobs that
	// needed repair it is the serialized clone, not the submitted graph;
	// for cache hits it is the graph of the first equivalent job.
	Graph *cg.Graph
	// Schedule is the minimum relative schedule, nil on error. Cache
	// hits share one immutable Schedule across results.
	Schedule *relsched.Schedule
	// Info is the anchor-set analysis behind Schedule (full, relevant
	// and irredundant anchor sets), nil on error.
	Info *relsched.AnchorInfo
	// SerializationEdges is the number of edges MakeWellPosed added
	// (always 0 when WellPose is false).
	SerializationEdges int
	// CacheHit reports whether the result was served from the cache.
	CacheHit bool
	// Suppressed reports duplicate suppression: the job missed the cache
	// but shared a concurrent leader's in-flight computation instead of
	// recomputing (singleflight). Like a cache hit, the result's
	// Graph/Schedule/Info are the leader's shared values.
	Suppressed bool
	// Duration is the wall-clock time the engine spent on this job.
	Duration time.Duration
	// Err is the pipeline verdict when no schedule exists: ErrUnfeasible
	// (Theorem 1), *IllPosedError (Theorem 2), ErrInconsistent
	// (Corollary 2), a graph-validation error, or a context error when
	// the job was cancelled or timed out.
	Err error
	// FlightBundle is the path of the flight-recorder bundle this job's
	// outcome triggered, empty when no dump was written. It also rides
	// the job's latency exemplar, so a scraped outlier points at its
	// evidence on disk.
	FlightBundle string
}

// Engine schedules batches of constraint graphs concurrently. An Engine
// is safe for use by multiple goroutines; create one per cache domain and
// reuse it, since the memoized analyses live on the Engine.
type Engine struct {
	workers    int
	jobTimeout time.Duration
	cache      *cache // nil when caching is disabled
	stageTimed bool   // Options.StageMetrics: always stamp stage boundaries

	registry *obs.Registry
	metrics  *engineMetrics
	hooks    *relsched.Hooks  // shared metrics-fed trace hook, see engineMetrics.hooks
	tracer   *trace.Tracer    // nil when tracing is off
	log      slog.Handler     // Options.Logger's handler, nil when logging is off
	recorder *flight.Recorder // nil when flight recording is off
	prof     *prof.Profiler   // nil when the self-profiling plane is off

	// warm memoizes ApplyDelta results per live graph value, keyed by the
	// generation counter, so a job resubmitting a delta-edited graph is
	// answered in O(1) — no SHA-256 refingerprinting anywhere on a delta
	// chain. See delta.go.
	warm graphMemo[warmEntry]
}

// flightCall is one in-progress computation other workers can wait on.
// Calls live in the cache's flight table (see cache.go).
type flightCall struct {
	done  chan struct{}  // closed when the leader finishes
	entry *analysisEntry // nil when the leader was cancelled mid-pipeline
}

// maxWarmMemo bounds the warm map (see delta.go).
const maxWarmMemo = 4096

// graphMemo is a bounded map keyed by graph identity under one mutex. It
// resets itself once it holds maxWarmMemo entries, which keeps
// long-lived engines from pinning every graph a caller ever submitted.
// Losing an entry is always safe: the memo is a pure cache re-derivable
// from the graph. The zero value is ready to use.
type graphMemo[V any] struct {
	mu sync.Mutex
	m  map[*cg.Graph]V
}

// get returns the memoized value for g. Allocation-free.
func (p *graphMemo[V]) get(g *cg.Graph) (V, bool) {
	p.mu.Lock()
	v, ok := p.m[g]
	p.mu.Unlock()
	return v, ok
}

// put stores the memoized value for g, resetting the map first if it is
// full.
func (p *graphMemo[V]) put(g *cg.Graph, v V) {
	p.mu.Lock()
	if p.m == nil || len(p.m) >= maxWarmMemo {
		p.m = make(map[*cg.Graph]V)
	}
	p.m[g] = v
	p.mu.Unlock()
}

// effectiveCPUs is the number of CPUs the engine can actually schedule
// on: GOMAXPROCS bounded by the physical core count, so a container
// that reports GOMAXPROCS=8 on one core does not spin up eight workers
// that serialize anyway.
func effectiveCPUs() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// New creates an Engine from the options.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = effectiveCPUs()
	}
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = DefaultCacheCapacity
	}
	registry := opts.Metrics
	if registry == nil {
		registry = obs.NewRegistry()
	}
	m := newEngineMetrics(registry)
	e := &Engine{
		workers:    opts.Workers,
		jobTimeout: opts.JobTimeout,
		stageTimed: opts.StageMetrics,
		registry:   registry,
		metrics:    m,
		hooks:      m.hooks(),
		tracer:     opts.Tracer,
		recorder:   opts.Flight,
		prof:       opts.Prof,
	}
	if opts.Logger != nil {
		e.log = opts.Logger.Handler()
	}
	if !opts.DisableCache {
		e.cache = newCache(opts.CacheCapacity, m.evictions)
	}
	return e
}

// Metrics returns the engine's metrics registry (see the Metric* names
// and docs/OBSERVABILITY.md). The registry is live: snapshot it whenever
// a report is needed.
func (e *Engine) Metrics() *obs.Registry { return e.registry }

// Workers returns the resolved worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// CacheCapacity returns the memoization cache's current entry bound, 0
// when caching is disabled.
func (e *Engine) CacheCapacity() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.getCapacity()
}

// SetCacheCapacity rebounds the memoization cache at runtime (hot reload
// for long-running servers), evicting least-recently-used entries when
// the new capacity is below the current population. Values <= 0 select
// DefaultCacheCapacity. It reports the effective capacity, 0 when
// caching is disabled (a disabled cache cannot be enabled after
// construction — the choice is part of the engine's identity).
func (e *Engine) SetCacheCapacity(n int) int {
	if e.cache == nil {
		return 0
	}
	if n <= 0 {
		n = DefaultCacheCapacity
	}
	e.cache.setCapacity(n)
	return n
}

// Stats snapshots the cache counters. All zeros when caching is disabled.
func (e *Engine) Stats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	m := e.metrics
	return CacheStats{
		Hits:       m.hits.Value(),
		Misses:     m.misses.Value(),
		Evictions:  m.evictions.Value(),
		Suppressed: m.suppressed.Value(),
		Entries:    e.cache.len(),
	}
}

// Run executes the jobs arriving on the jobs channel on the worker pool
// and streams one Result per job on the returned channel, which is closed
// once the jobs channel is closed and all in-flight jobs have finished,
// or once ctx is cancelled and the in-flight results are delivered.
// Result order is completion order, not submission order; use Job.ID (or
// RunAll) to correlate.
//
// Delivery guarantee: every job received from the jobs channel produces
// exactly one Result — a job in flight when ctx is cancelled is still
// delivered, with Err = ctx.Err() if the pipeline was cut short. Callers
// correlating by Job.ID therefore never see an accepted job vanish. The
// flip side: consumers must drain the results channel until it closes,
// and producers writing to jobs must select on ctx.Done() themselves or
// they may block forever once workers stop receiving.
func (e *Engine) Run(ctx context.Context, jobs <-chan Job) <-chan Result {
	results := make(chan Result)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job, ok := <-jobs:
					if !ok {
						return
					}
					// Unconditional send: once a job is accepted its
					// result must not be dropped, even if ctx is
					// cancelled while the send is blocked (the result
					// then carries ctx.Err() from Schedule's
					// checkpoints, or the last pre-cancel value).
					results <- e.Schedule(ctx, job)
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	return results
}

// RunAll executes a fixed batch on the worker pool and returns the
// results in submission order: results[i] answers jobs[i]. Jobs that did
// not run because ctx was cancelled carry the context error.
//
// When the pool has a single worker the batch runs inline on the calling
// goroutine — no goroutines, no atomic work-claiming — so a one-core
// deployment's pooled path is the sequential path (pinned by the
// benchmark artifact's 1-core bound, see engine_bench_test.go).
func (e *Engine) RunAll(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		// Inline: each job is claimed the instant it would have been
		// queued, so the queue-depth gauge is never raised — there is
		// no moment a job sits waiting for a worker, and the two atomic
		// ops per job would be pure overhead on the 1-core path.
		for i := range jobs {
			results[i] = e.Schedule(ctx, jobs[i])
		}
		return results
	}
	// queue.depth tracks jobs not yet claimed by a worker; Add (not Set)
	// so concurrent RunAll calls on a shared engine aggregate.
	e.metrics.queueDepth.Add(int64(len(jobs)))
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				e.metrics.queueDepth.Add(-1)
				results[i] = e.Schedule(ctx, jobs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// Schedule executes one job synchronously: fingerprint, cache lookup, and
// on a miss the full pipeline — well-posedness handling, anchor analysis,
// iterative incremental scheduling — with the outcome memoized for the
// next equivalent job. Concurrent misses on the same key are
// duplicate-suppressed: one worker (the leader) computes, the rest wait
// and share its entry.
//
// Cancellation is checkpointed: the pipeline stages are uninterruptible
// CPU-bound passes (each fast — the paper's designs all schedule in well
// under a second), so ctx and the per-job deadline are checked between
// stages rather than preempting one. A cancelled or expired job returns
// Err = ctx.Err() without polluting the cache.
func (e *Engine) Schedule(ctx context.Context, job Job) Result {
	m := e.metrics
	start := time.Now()
	m.submitted.Inc()
	m.inflight.Add(1)
	res := Result{JobID: job.ID, Graph: job.Graph}
	// A request-scoped parent (internal/serve) owns the job span so one
	// trace tree follows intake → queue → schedule; batch jobs stay
	// roots. StartChild on a nil parent returns nil, falling through.
	span := job.Parent.StartChild("job")
	if span == nil {
		span = e.tracer.StartSpan("job")
	}
	span.SetStr("id", job.ID)
	if job.RequestID != "" {
		span.SetStr("request_id", job.RequestID)
	}

	// Profile attribution: tag the goroutine (and ctx, so the pipeline's
	// stage labels nest under these) with the job's identity. Skipped
	// outright — no label build, no defer — when no profiler is wired.
	if e.prof != nil {
		var unlabel func()
		ctx, unlabel = e.prof.JobLabels(ctx, job.Tenant, job.Design, modeLabel(job.WellPose))
		defer unlabel()
	}

	// Per-job logging context: every record names the job (and its span
	// when traced). With the flight recorder on, a Capture keeps every
	// record — debug included — as the job's evidence while forwarding
	// lines the live sink wants, and stage timings are collected for the
	// flight record.
	jc := &jobCtx{log: e.log, jobID: job.ID, spanID: uint64(span.ID()), reqID: job.RequestID}
	var capture *logx.Capture
	if e.recorder != nil {
		capture = logx.NewCapture(jc.log)
		jc.log = capture
		jc.stages = make(map[string]int64, 8)
	}
	// Quiescence check: stage-granular telemetry is recorded only when
	// something consumes it — a sampled span, a flight capture, pprof
	// stage labels, a debug-level log sink — or when the engine was
	// built with StageMetrics. A quiescent job skips the per-stage
	// clock reads and engine.stage.* observations entirely; everything
	// job-level (outcome counters, cache counters, engine.job.duration)
	// is still recorded below.
	jc.timed = e.stageTimed || span != nil || capture != nil ||
		e.prof.LabelsEnabled() || jc.enabled(slog.LevelDebug)
	if err := ctx.Err(); err != nil {
		res.Err = err
		return e.finish(job, &res, jc, capture, span, start, Fingerprint{}, false)
	}
	timeout := job.Timeout
	if timeout <= 0 {
		timeout = e.jobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Cache disabled: no fingerprint, no lookup — the hash would be pure
	// overhead with nothing to key, so the job goes straight into the
	// pipeline (the flight recorder reads a fingerprint the graph already
	// holds, see finishJob).
	if e.cache == nil {
		// The entry lives on this stack frame: nothing caches it, so the
		// uncached path runs allocation-free in the engine layer.
		var slot analysisEntry
		entry := e.compute(ctx, job, span, jc, &slot)
		if entry == nil { // cancelled mid-pipeline
			res.Err = ctx.Err()
			return e.finish(job, &res, jc, capture, span, start, Fingerprint{}, false)
		}
		res.fill(entry)
		return e.finish(job, &res, jc, capture, span, start, Fingerprint{}, false)
	}

	// Delta fast path: a graph produced by ApplyDelta answers from its
	// warm entry on (graph identity, generation) — no fingerprint hash.
	// Warm entries are exact-generation matches, so any mutation since
	// the delta (which bumps the generation) falls through to the normal
	// fingerprint + cache path. Counted as a lookup + hit to preserve the
	// cache conservation laws.
	if !job.WellPose {
		if entry, ok := e.warmGet(job.Graph); ok {
			m.lookups.Inc()
			m.hits.Inc()
			m.warmHits.Inc()
			res.fill(entry)
			res.CacheHit = true
			return e.finish(job, &res, jc, capture, span, start, Fingerprint{}, false)
		}
	}

	key := cacheKey{wellPose: job.WellPose}
	var now time.Time
	if jc.timed {
		t := time.Now()
		fpSpan := span.StartChild("fingerprint")
		if e.prof.LabelsEnabled() {
			// The closure literal lives inside the guard so the disabled
			// path (the cache-hit fast path's only stage) stays
			// allocation-free.
			e.prof.DoStage(ctx, prof.StageFingerprint, func() {
				key.fp = fingerprint(job.Graph)
			})
		} else {
			key.fp = fingerprint(job.Graph)
		}
		fpSpan.End()
		now = time.Now()
		d := now.Sub(t)
		jc.observe(m.stageFingerprint, d)
		jc.stage("fingerprint", int64(d))
		if jc.enabled(slog.LevelDebug) {
			jc.logAttrs(slog.LevelDebug, "job accepted",
				slog.String("fingerprint", key.fp.String()),
				slog.Bool("wellpose", job.WellPose))
		}
	} else {
		// Quiescent: hash without stamps — nothing consumes the stage
		// boundary.
		key.fp = fingerprint(job.Graph)
	}

	for {
		var (
			entry  *analysisEntry
			call   *flightCall
			leader bool
		)
		if jc.timed {
			// Stage-boundary clocks are fused: the fingerprint stage's
			// end stamp doubles as the cache stage's start, halving the
			// time.Now calls on the hit path.
			t := now
			cacheSpan := span.StartChild("cache")
			// One locked step answers the lookup, joins an in-flight
			// leader, or registers this worker as the leader (see
			// cache.go).
			entry, call, leader = e.cache.lookupOrLead(key)
			cacheSpan.End()
			now = time.Now()
			d := now.Sub(t)
			jc.observe(m.stageCache, d)
			jc.stage("cache", int64(d))
		} else {
			entry, call, leader = e.cache.lookupOrLead(key)
		}
		m.lookups.Inc()
		if entry != nil {
			m.hits.Inc()
			res.fill(entry)
			res.CacheHit = true
			return e.finish(job, &res, jc, capture, span, start, key.fp, true)
		}
		m.misses.Inc()

		if !leader {
			// Follower: wait for the leader instead of recomputing.
			waitSpan := span.StartChild("flight.wait")
			select {
			case <-call.done:
				waitSpan.End()
				if call.entry != nil {
					m.suppressed.Inc()
					res.fill(call.entry)
					res.Suppressed = true
					return e.finish(job, &res, jc, capture, span, start, key.fp, true)
				}
				// The leader was cancelled and published nothing; loop
				// to re-check the cache and, if still empty, lead.
				if jc.timed {
					now = time.Now()
				}
				continue
			case <-ctx.Done():
				waitSpan.End()
				res.Err = ctx.Err()
				return e.finish(job, &res, jc, capture, span, start, key.fp, true)
			}
		}

		// Leader: run the pipeline, then publish entry + release the
		// flight slot in one locked step and wake the followers.
		// The entry is heap-allocated here because the cache retains it.
		entry = e.compute(ctx, job, span, jc, new(analysisEntry))
		e.cache.leaderDone(key, call, entry)

		if entry == nil { // cancelled mid-pipeline; nothing cached
			res.Err = ctx.Err()
			return e.finish(job, &res, jc, capture, span, start, key.fp, true)
		}
		res.fill(entry)
		return e.finish(job, &res, jc, capture, span, start, key.fp, true)
	}
}

// finish finalizes a result: duration, outcome counters, span closure,
// flight-recorder hand-off, and the job-duration observation. A method
// rather than a per-job closure so the cache-hit fast path does not
// allocate a capture environment.
func (e *Engine) finish(job Job, res *Result, jc *jobCtx, capture *logx.Capture, span *trace.Span, start time.Time, fp Fingerprint, fpKnown bool) Result {
	m := e.metrics
	res.Duration = time.Since(start)
	m.inflight.Add(-1)
	switch {
	case res.Err == nil:
		m.completed.Inc()
	case errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded):
		m.cancelled.Inc()
	default:
		m.failed.Inc()
	}
	if span != nil {
		span.SetBool("cache_hit", res.CacheHit)
		span.SetBool("suppressed", res.Suppressed)
		if res.Err != nil {
			span.SetStr("error", res.Err.Error())
		}
		// End before finishJob so a flight dump's snapshot already
		// holds this job's completed span tree.
		span.End()
	}
	e.finishJob(job, res, jc, capture, span, fp, fpKnown)
	// Observed after finishJob so a triggered dump's bundle path can
	// ride the duration exemplar. Plain Observe (alloc-free) when the
	// job carries no correlation identity.
	if jc.spanID == 0 && jc.reqID == "" && res.FlightBundle == "" {
		m.jobDuration.Observe(res.Duration)
	} else {
		m.jobDuration.ObserveExemplar(res.Duration, obs.Exemplar{
			SpanID:     jc.spanID,
			RequestID:  jc.reqID,
			FlightPath: res.FlightBundle,
		})
	}
	return *res
}

// fill copies a memoized outcome into the result.
func (r *Result) fill(entry *analysisEntry) {
	r.Graph = entry.graph
	r.Schedule = entry.sched
	r.Info = entry.info
	r.SerializationEdges = entry.added
	r.Err = entry.err
}

// compute runs the scheduling pipeline of §IV for one job, timing each
// stage into the engine's histograms (instrumented jobs only — see
// jobCtx.timed) and counting the run in engine.computes once it reaches
// a verdict. The caller supplies the entry storage — stack space on the
// uncached path, a heap allocation when the cache will retain it. It
// returns nil (and nothing is cached, and no compute is counted) when
// ctx expires between stages; otherwise the returned entry (the same
// pointer, filled in) holds either the schedule or the deterministic
// error verdict, both of which are valid to memoize.
//
// When the parent span is live (traced and sampled in), each stage opens
// a child span under it, and the relsched inner-loop hooks additionally
// record instant events into the stage span; otherwise the shared
// metrics-only hooks are used and tracing costs nothing.
func (e *Engine) compute(ctx context.Context, job Job, parent *trace.Span, jc *jobCtx, entry *analysisEntry) *analysisEntry {
	m := e.metrics
	*entry = analysisEntry{graph: job.Graph}
	verdict := func() *analysisEntry {
		m.computes.Inc()
		return entry
	}
	// Stage boundaries are elapsed-time deltas against one anchor stamp:
	// time.Since reads only the monotonic clock, which is roughly half
	// the cost of a full time.Now on VM clocksources, and one anchor +
	// three deltas replaces the six absolute reads the stages used to
	// make. On small graphs the clock reads were a measurable slice of
	// the whole pipeline — and on a quiescent job (jc.timed false) they
	// are skipped outright.
	timed := jc.timed
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	prev := time.Duration(0)
	stageEnd := func() time.Duration {
		el := time.Since(t0)
		d := el - prev
		prev = el
		return d
	}
	// On the check (non-repair) path the wellpose stage returns the
	// anchor sets it computed, and the analyze stage continues from them
	// — one anchor-set pass per job instead of the two relsched.Compute
	// makes (the check and the analysis each run their own). This is the
	// engine's main algorithmic edge over the sequential baseline; the
	// schedules are identical either way (see TestAnalyzeFromSets).
	var sets *relsched.AnchorInfo
	sp := parent.StartChild("wellpose")
	if job.WellPose {
		var (
			wp    *cg.Graph
			added int
			err   error
		)
		e.prof.DoStage(ctx, prof.StageWellPose, func() {
			wp, added, err = relsched.MakeWellPosedTraced(job.Graph, e.stageHooks(sp))
		})
		entry.added = added
		sp.SetInt("serialization_edges", int64(added))
		sp.End()
		if timed {
			d := stageEnd()
			jc.observe(m.stageWellpose, d)
			jc.stage("wellpose", int64(d))
		}
		if err != nil {
			entry.err = err
			return verdict()
		}
		if added > 0 && jc.enabled(slog.LevelDebug) {
			jc.logAttrs(slog.LevelDebug, "graph serialized", slog.Int("edges_added", added))
		}
		entry.graph = wp
	} else {
		var err error
		e.prof.DoStage(ctx, prof.StageWellPose, func() {
			sets, err = relsched.CheckWellPosedAnalyzed(job.Graph)
		})
		sp.End()
		if timed {
			d := stageEnd()
			jc.observe(m.stageWellpose, d)
			jc.stage("wellpose", int64(d))
		}
		if err != nil {
			entry.err = err
			return verdict()
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	sp = parent.StartChild("analyze")
	var (
		info *relsched.AnchorInfo
		err  error
	)
	e.prof.DoStage(ctx, prof.StageAnalyze, func() {
		if sets != nil {
			info, err = relsched.AnalyzeFromSets(entry.graph, sets)
		} else {
			info, err = relsched.Analyze(entry.graph)
		}
	})
	if err != nil {
		sp.End()
		if timed {
			d := stageEnd()
			jc.observe(m.stageAnalyze, d)
			jc.stage("analyze", int64(d))
		}
		entry.err = err
		return verdict()
	}
	sp.SetInt("anchors", int64(info.NumAnchors()))
	sp.End()
	if timed {
		d := stageEnd()
		jc.observe(m.stageAnalyze, d)
		jc.stage("analyze", int64(d))
	}
	if jc.enabled(slog.LevelDebug) {
		jc.logAttrs(slog.LevelDebug, "anchor analysis done", slog.Int("anchors", info.NumAnchors()))
	}
	entry.info = info
	if ctx.Err() != nil {
		return nil
	}
	sp = parent.StartChild("schedule")
	var sched *relsched.Schedule
	e.prof.DoStage(ctx, prof.StageSchedule, func() {
		sched, err = relsched.ComputeFromAnalysis(info, e.stageHooks(sp))
	})
	if err != nil {
		sp.End()
		if timed {
			d := stageEnd()
			jc.observe(m.stageSchedule, d)
			jc.stage("schedule", int64(d))
		}
		entry.err = err
		return verdict()
	}
	sp.SetInt("iterations", int64(sched.Iterations))
	sp.End()
	if timed {
		d := stageEnd()
		jc.observe(m.stageSchedule, d)
		jc.stage("schedule", int64(d))
	}
	// The schedule's analysis adds the irredundant sets the offsets define.
	entry.info = sched.Info
	entry.sched = sched
	return verdict()
}

// stageHooks returns the relsched trace hooks for one pipeline stage:
// the shared metrics-only hooks when the stage span is disabled, or a
// per-stage wrapper that both bumps the counters and records the
// inner-loop iterations as instant events on the span.
func (e *Engine) stageHooks(sp *trace.Span) *relsched.Hooks {
	if sp == nil {
		return e.hooks
	}
	m := e.metrics
	return &relsched.Hooks{
		RelaxationSweep: func(iteration int) {
			m.relaxSweeps.Inc()
			sp.Event("relax.sweep", int64(iteration))
		},
		Readjustment: func(raised int) {
			m.readjusted.Add(uint64(raised))
			sp.Event("relax.readjusted", int64(raised))
		},
		SerializationPass: func(added int) {
			m.serialEdges.Add(uint64(added))
			sp.Event("wellpose.serialization_pass", int64(added))
		},
	}
}

// modeLabel maps the job's well-posedness mode onto its profile label
// value: "wellpose" jobs repair ill-posed graphs, "strict" jobs reject
// them. Constant strings, so the disabled-profiling path never allocates.
func modeLabel(wellPose bool) string {
	if wellPose {
		return "wellpose"
	}
	return "strict"
}

// fingerprint returns the canonical fingerprint of g, memoized on the
// graph itself (cg.Graph.SetDigest) so resubmitting the same graph skips
// the structural hash. Every mutation clears the memo, and it dies with
// the graph.
func fingerprint(g *cg.Graph) Fingerprint {
	if fp, ok := g.Digest(); ok {
		return fp
	}
	fp := FingerprintOf(g)
	g.SetDigest(fp)
	return fp
}
