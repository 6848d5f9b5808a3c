package engine

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"time"

	"repro/internal/flight"
	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/relsched"
	"repro/internal/trace"
)

// This file wires the engine into the narrative layers of the
// observability triad: per-job structured logging (log/slog) and the
// black-box flight recorder (internal/flight). Both are optional; with
// neither configured the per-job overhead is a handful of nil checks.

// jobCtx carries one job's logging and evidence-collection state
// through the pipeline. The zero value is the disabled state: a nil
// handler logs nothing and a nil stages map skips timing collection.
type jobCtx struct {
	// log is the job's handler: Options.Logger's, a logx.Capture, or
	// nil when nothing logs or captures. The engine writes records to it
	// directly, with the job's identity as each record's first
	// attributes: a *slog.Logger bound per job would cost a handler
	// clone per job, and a runtime.Callers per record for a source
	// location no handler here prints.
	log   slog.Handler
	jobID string
	// stages accumulates per-stage wall-clock time for the flight
	// record; allocated only when the flight recorder is on. The
	// pipeline runs one job on one worker, so no lock is needed.
	stages map[string]int64
	// spanID and reqID are the job's correlation identity, attached to
	// stage-latency exemplars. Both zero on the disabled path, which
	// keeps stage observations on the alloc-free plain Observe.
	spanID uint64
	reqID  string
	// timed selects the instrumented hot path: stage boundaries are
	// stamped and the engine.stage.* histograms observed. False on a
	// quiescent job — no sampled span, no flight recorder, no pprof
	// stage labels, no debug log, and Options.StageMetrics unset — so
	// the bare engine skips six clock reads and four histogram
	// observations per job. Set once in Schedule.
	timed bool
}

// enabled reports whether a record at level would be logged or
// captured. Call sites gate attribute construction on it, which keeps
// the disabled path allocation-free.
func (jc *jobCtx) enabled(level slog.Level) bool {
	return jc.log != nil && jc.log.Enabled(context.Background(), level)
}

// logAttrs writes one record to the job's handler, led by the job's
// "job" (and, when traced, "span") attribute; callers check enabled
// first. A failed log write changes nothing about the job.
func (jc *jobCtx) logAttrs(level slog.Level, msg string, attrs ...slog.Attr) {
	r := slog.NewRecord(time.Now(), level, msg, 0)
	r.AddAttrs(slog.String("job", jc.jobID))
	if jc.spanID != 0 {
		r.AddAttrs(slog.Int64("span", int64(jc.spanID)))
	}
	r.AddAttrs(attrs...)
	_ = jc.log.Handle(context.Background(), r)
}

func (jc *jobCtx) stage(name string, ns int64) {
	if jc.stages != nil {
		jc.stages[name] = ns
	}
}

// observe records a stage duration, riding the job's span/request
// identity as an exemplar when the job has one. Identity-free jobs
// (tracing off, no serving layer) take the plain alloc-free path.
func (jc *jobCtx) observe(h *obs.Histogram, d time.Duration) {
	if jc.spanID == 0 && jc.reqID == "" {
		h.Observe(d)
		return
	}
	h.ObserveExemplar(d, obs.Exemplar{SpanID: jc.spanID, RequestID: jc.reqID})
}

// finishJob runs after the job's span is ended and its counters are
// settled: it emits the job's outcome log line and hands the record to
// the flight recorder. Enrichment (rendered logs, span tree,
// provenance) happens inside the recorder's dump path only, so healthy
// jobs never pay for it.
func (e *Engine) finishJob(job Job, res *Result, jc *jobCtx, capture *logx.Capture, span *trace.Span, fp Fingerprint, fpKnown bool) {
	if e.recorder == nil && jc.log == nil {
		return // nothing to log, nothing to record
	}
	kind := classifyErrKind(res.Err)
	switch kind {
	case "":
		if jc.enabled(slog.LevelInfo) {
			jc.logAttrs(slog.LevelInfo, "job scheduled",
				slog.Bool("cache_hit", res.CacheHit),
				slog.Bool("suppressed", res.Suppressed),
				slog.Duration("dur", res.Duration))
		}
	case flight.ErrKindCanceled, flight.ErrKindTimeout:
		if jc.enabled(slog.LevelWarn) {
			jc.logAttrs(slog.LevelWarn, "job "+kind,
				slog.Duration("dur", res.Duration),
				slog.String("err", res.Err.Error()))
		}
	default:
		if jc.enabled(slog.LevelError) {
			jc.logAttrs(slog.LevelError, "job failed",
				slog.String("kind", kind),
				slog.Duration("dur", res.Duration),
				slog.String("err", res.Err.Error()))
		}
	}
	if e.recorder == nil {
		return
	}
	rec := flight.JobRecord{
		JobID:      res.JobID,
		WellPose:   job.WellPose,
		CacheHit:   res.CacheHit,
		Suppressed: res.Suppressed,
		DurationNS: int64(res.Duration),
		ErrKind:    kind,
		StageNS:    jc.stages,
	}
	if fpKnown {
		rec.Fingerprint = fp.String()
	} else if mfp, ok := job.Graph.Digest(); ok {
		// A job that skipped hashing (warm hit, cache disabled, pre-hash
		// cancellation) still gets its fingerprint into the flight record
		// when the graph already holds one — a memo probe, never a hash.
		rec.Fingerprint = Fingerprint(mfp).String()
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	}
	// FilterRoot over the span's root, not its own ID: a request-linked
	// job span carves out the whole request tree (for root job spans the
	// two coincide).
	_, bundle := e.recorder.ObserveDump(rec, func(jr *flight.JobRecord) {
		jr.Logs, jr.LogsDropped = capture.Logs()
		if e.tracer != nil {
			if spans := trace.FilterRoot(e.tracer.Snapshot(), span.Root()); len(spans) > 0 {
				jr.Spans = spans
			}
		}
		if p := provenanceJSON(res); p != nil {
			jr.Provenance = p
		}
		// A dump is the "something is wrong right now" signal the
		// profiling plane keys on: capture CPU+heap alongside the bundle
		// (rate-limited independently) and cross-link the paths.
		trigger := kind
		if trigger == "" {
			trigger = "latency"
		}
		if pc, ok := e.prof.Capture("flight_" + trigger); ok {
			jr.Profiles = pc.Paths()
		}
	})
	res.FlightBundle = bundle
}

// classifyErrKind maps a job verdict onto the flight recorder's error
// taxonomy: deadline and cancellation are told apart (only the former
// is dump-worthy), ill-posedness is its own trigger, anything else is a
// generic error. Order matters: a deadline error wrapped by the
// pipeline must not be mistaken for ill-posedness.
func classifyErrKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return flight.ErrKindTimeout
	case errors.Is(err, context.Canceled):
		return flight.ErrKindCanceled
	}
	var ill *relsched.IllPosedError
	if errors.As(err, &ill) {
		return flight.ErrKindIllPosed
	}
	return flight.ErrKindError
}

// Compact provenance summary embedded in flight bundles: the critical
// structure of the schedule (zero-slack vertices and maximum timing
// constraints with their margins), not the full per-vertex dump that
// `relsched explain -json` produces — a bundle wants the part a human
// reads first, bounded in size.
type provenanceSummary struct {
	// Vertices is the number of scheduled vertices; Critical how many
	// have zero slack; Listed how many made it into Entries (capped).
	Vertices int `json:"vertices"`
	Critical int `json:"critical"`
	Listed   int `json:"listed"`
	// Entries holds the interesting vertices: zero slack or carrying a
	// maximum timing constraint.
	Entries []provenanceEntry `json:"entries,omitempty"`
}

type provenanceEntry struct {
	Vertex string `json:"vertex"`
	Slack  int    `json:"slack"`
	// Bindings: one line per anchor binding — which anchor forces the
	// offset, through how long a chain, and whether a maximum constraint
	// (rather than a dependency) did the forcing.
	Bindings []provenanceBinding `json:"bindings,omitempty"`
	// MaxConstraints: the vertex's maximum timing constraints with
	// margins; a tight one binds the schedule.
	MaxConstraints []provenanceMax `json:"max_constraints,omitempty"`
}

type provenanceBinding struct {
	Anchor   string `json:"anchor"`
	Offset   int    `json:"offset"`
	ChainLen int    `json:"chain_len"`
	ViaMax   bool   `json:"via_max,omitempty"`
	Slack    int    `json:"slack"`
}

type provenanceMax struct {
	Other  string `json:"other"`
	U      int    `json:"u"`
	Margin int    `json:"margin"`
	Tight  bool   `json:"tight,omitempty"`
}

// maxProvenanceEntries bounds the bundle's provenance section.
const maxProvenanceEntries = 32

// provenanceJSON builds the bundle provenance for a job that produced a
// schedule. It runs only inside a flight dump (rate-limited), so the
// O(|V|·|E|) Explainer construction is off the per-job path. Returns
// nil when explanation fails — a bundle with no provenance beats no
// bundle.
func provenanceJSON(res *Result) json.RawMessage {
	if res.Schedule == nil {
		return nil
	}
	ex := res.Schedule.NewExplainer()
	all, err := ex.ExplainAll(relsched.FullAnchors)
	if err != nil {
		return nil
	}
	g := res.Graph
	sum := provenanceSummary{Vertices: len(all)}
	for _, vp := range all {
		if vp.Slack == 0 {
			sum.Critical++
		}
		if vp.Slack != 0 && len(vp.MaxConstraints) == 0 {
			continue
		}
		if len(sum.Entries) >= maxProvenanceEntries {
			continue
		}
		e := provenanceEntry{Vertex: g.Name(vp.Vertex), Slack: vp.Slack}
		for _, b := range vp.Bindings {
			e.Bindings = append(e.Bindings, provenanceBinding{
				Anchor:   g.Name(b.Anchor),
				Offset:   b.Offset,
				ChainLen: len(b.Chain),
				ViaMax:   b.ViaMax,
				Slack:    b.Slack,
			})
		}
		for _, mc := range vp.MaxConstraints {
			e.MaxConstraints = append(e.MaxConstraints, provenanceMax{
				Other:  g.Name(mc.Other),
				U:      mc.U,
				Margin: mc.Margin,
				Tight:  mc.Tight,
			})
		}
		sum.Entries = append(sum.Entries, e)
	}
	sum.Listed = len(sum.Entries)
	data, err := json.Marshal(sum)
	if err != nil {
		return nil
	}
	return data
}
