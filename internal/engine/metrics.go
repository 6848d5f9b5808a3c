package engine

import (
	"repro/internal/obs"
	"repro/internal/relsched"
)

// Metric names the engine registers in its obs.Registry. Every name is
// documented, with the paper construct it measures, in
// docs/OBSERVABILITY.md. The conservation invariants across them
// (lookups = hits + misses; submitted = completed + failed + cancelled;
// hits + suppressed + computes + cancelled = submitted when caching is
// on) are pinned by TestMetricsConservation.
const (
	// Job lifecycle counters.
	MetricJobsSubmitted = "engine.jobs.submitted"
	MetricJobsCompleted = "engine.jobs.completed"
	MetricJobsFailed    = "engine.jobs.failed"
	MetricJobsCancelled = "engine.jobs.cancelled"
	// Gauges: jobs inside Engine.Schedule right now, and RunAll jobs not
	// yet claimed by a worker.
	MetricJobsInflight = "engine.jobs.inflight"
	MetricQueueDepth   = "engine.queue.depth"
	// Memoization-layer counters.
	MetricCacheLookups        = "engine.cache.lookups"
	MetricCacheHits           = "engine.cache.hits"
	MetricCacheMisses         = "engine.cache.misses"
	MetricCacheEvictions      = "engine.cache.evictions"
	MetricDuplicateSuppressed = "engine.cache.duplicate_suppressed"
	// Full pipeline executions (cache misses that ran to a verdict).
	MetricComputes = "engine.computes"
	// MetricJobsShed counts jobs refused at admission by a serving layer
	// sitting in front of the engine (internal/serve): queue full, tenant
	// rate limit, or tenant quota. The engine itself never sheds — every
	// job it accepts produces exactly one Result — so the counter lives
	// here as part of the job-accounting namespace and is recorded by the
	// admission layer on the shared registry. Conservation: HTTP jobs
	// requested = accepted + shed (pinned by internal/serve tests).
	MetricJobsShed = "engine.jobs.shed"
	// Reactive delta counters (Engine.ApplyDelta, see delta.go):
	// incremental re-schedules that succeeded / were rejected, and jobs
	// answered from the generation-keyed warm map without fingerprinting.
	// Warm hits also count as cache lookups + hits, so the conservation
	// laws above hold unchanged; warm_hits <= hits refines the split.
	MetricDeltaApplied  = "engine.delta.applied"
	MetricDeltaFailed   = "engine.delta.failed"
	MetricDeltaWarmHits = "engine.delta.warm_hits"
	// Per-stage latency histograms of the scheduling pipeline.
	// Recorded for *instrumented* jobs only — ones carrying a sampled
	// trace span, a flight capture, pprof stage labels, or a debug log
	// sink — or for every job when the engine is built with
	// Options.StageMetrics (the batch CLI and serve daemon do). A bare
	// embedded engine leaves these empty and skips the stage clock
	// reads entirely; job-level metrics are always complete.
	MetricStageFingerprint = "engine.stage.fingerprint"
	MetricStageCache       = "engine.stage.cache"
	MetricStageWellpose    = "engine.stage.wellpose"
	MetricStageAnalyze     = "engine.stage.analyze"
	MetricStageSchedule    = "engine.stage.schedule"
	// MetricStageDelta times Engine.ApplyDelta end to end (the
	// incremental counterpart of wellpose+analyze+schedule combined).
	MetricStageDelta  = "engine.stage.delta"
	MetricJobDuration = "engine.job.duration"
	// Inner-loop counters fed by relsched.Hooks: IncrementalOffset sweeps
	// (Theorem 8), offsets raised by ReadjustOffsets passes, and
	// serialization edges added by makeWellposed (Theorem 7).
	MetricRelaxSweeps        = "relsched.relax.sweeps"
	MetricReadjustedOffsets  = "relsched.relax.readjusted_offsets"
	MetricSerializationEdges = "relsched.wellpose.serialization_edges"
)

// engineMetrics holds the engine's metrics resolved once at construction,
// so the per-job hot path pays only atomic operations, never registry map
// lookups.
type engineMetrics struct {
	submitted, completed, failed, cancelled    *obs.Counter
	lookups, hits, misses, evictions           *obs.Counter
	suppressed, computes                       *obs.Counter
	deltaApplied, deltaFailed, warmHits        *obs.Counter
	relaxSweeps, readjusted, serialEdges       *obs.Counter
	inflight, queueDepth                       *obs.Gauge
	stageFingerprint, stageCache               *obs.Histogram
	stageWellpose, stageAnalyze, stageSchedule *obs.Histogram
	stageDelta, jobDuration                    *obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		submitted:        r.Counter(MetricJobsSubmitted),
		completed:        r.Counter(MetricJobsCompleted),
		failed:           r.Counter(MetricJobsFailed),
		cancelled:        r.Counter(MetricJobsCancelled),
		lookups:          r.Counter(MetricCacheLookups),
		hits:             r.Counter(MetricCacheHits),
		misses:           r.Counter(MetricCacheMisses),
		evictions:        r.Counter(MetricCacheEvictions),
		suppressed:       r.Counter(MetricDuplicateSuppressed),
		computes:         r.Counter(MetricComputes),
		deltaApplied:     r.Counter(MetricDeltaApplied),
		deltaFailed:      r.Counter(MetricDeltaFailed),
		warmHits:         r.Counter(MetricDeltaWarmHits),
		relaxSweeps:      r.Counter(MetricRelaxSweeps),
		readjusted:       r.Counter(MetricReadjustedOffsets),
		serialEdges:      r.Counter(MetricSerializationEdges),
		inflight:         r.Gauge(MetricJobsInflight),
		queueDepth:       r.Gauge(MetricQueueDepth),
		stageFingerprint: r.Histogram(MetricStageFingerprint),
		stageCache:       r.Histogram(MetricStageCache),
		stageWellpose:    r.Histogram(MetricStageWellpose),
		stageAnalyze:     r.Histogram(MetricStageAnalyze),
		stageSchedule:    r.Histogram(MetricStageSchedule),
		stageDelta:       r.Histogram(MetricStageDelta),
		jobDuration:      r.Histogram(MetricJobDuration),
	}
}

// hooks adapts the metrics into the relsched trace hook. The callbacks
// run concurrently on every worker; the counters are atomic, so one
// shared Hooks value serves the whole engine.
func (m *engineMetrics) hooks() *relsched.Hooks {
	return &relsched.Hooks{
		RelaxationSweep:   func(int) { m.relaxSweeps.Inc() },
		Readjustment:      func(raised int) { m.readjusted.Add(uint64(raised)) },
		SerializationPass: func(added int) { m.serialEdges.Add(uint64(added)) },
	}
}
