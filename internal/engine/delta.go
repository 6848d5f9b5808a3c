package engine

import (
	"context"
	"time"

	"repro/internal/cg"
	"repro/internal/prof"
	"repro/internal/relsched"
)

// This file is the engine face of the reactive delta layer (see
// docs/INCREMENTAL.md): ApplyDelta runs a cone-bounded incremental
// re-schedule, and the warm map keys its results on (graph identity,
// generation) so that jobs resubmitting a delta-edited graph are
// answered in O(1) — a chain of edits never pays the SHA-256
// fingerprint the fingerprint+LRU path charges per distinct graph.

// warmEntry is one memoized delta result. Exact-generation match only:
// any further edit bumps the graph's generation and invalidates it.
type warmEntry struct {
	gen   uint64
	entry *analysisEntry
}

// warmGet returns the warm entry for g's current generation, if any.
func (e *Engine) warmGet(g *cg.Graph) (*analysisEntry, bool) {
	if w, ok := e.warm.get(g); ok && w.gen == g.Generation() {
		return w.entry, true
	}
	return nil, false
}

// warmPut memoizes a delta schedule under its graph's current
// generation, replacing any stale entry for the same graph value. The
// map resets past maxWarmMemo entries so long-lived engines do not pin
// dead graphs.
func (e *Engine) warmPut(s *relsched.Schedule) {
	entry := &analysisEntry{graph: s.G, info: s.Info, sched: s}
	e.warm.put(s.G, warmEntry{gen: s.Generation(), entry: entry})
}

// ApplyDelta applies graph edits to a live schedule through the
// cone-bounded incremental path (relsched.Schedule.Apply) and memoizes
// the result in the warm map, so a follow-up Schedule call with the
// edited graph is a warm hit. On error the graph has been rolled back
// and base remains its valid schedule.
//
// Apply mutates the schedule's graph in place, so base must be a
// schedule whose graph the caller owns exclusively — engine cache
// entries are shared and immutable; Fork such a schedule first
// (relsched.Schedule.Fork) and apply deltas to the fork. The serving
// layer does exactly this on the first PATCH of a job.
func (e *Engine) ApplyDelta(base *relsched.Schedule, edits ...cg.Edit) (*relsched.Schedule, error) {
	m := e.metrics
	t := time.Now()
	var next *relsched.Schedule
	var err error
	if e.prof.LabelsEnabled() {
		// No job context flows through the delta path; the stage label
		// alone still attributes incremental re-schedule time in profiles.
		e.prof.DoStage(context.Background(), prof.StageDelta, func() {
			next, err = base.Apply(edits...)
		})
	} else {
		next, err = base.Apply(edits...)
	}
	m.stageDelta.Observe(time.Since(t))
	if err != nil {
		m.deltaFailed.Inc()
		return nil, err
	}
	m.deltaApplied.Inc()
	e.warmPut(next)
	return next, nil
}
