// Package prof is the engine's self-profiling plane. It has two jobs:
//
//   - Attribution: wrap engine work in pprof label sets ({tenant, design,
//     mode} per job, {stage} per pipeline stage) so a CPU profile of a
//     busy daemon decomposes into fingerprint/wellpose/analyze/schedule/
//     delta time per tenant instead of one anonymous flame.
//   - Capture: triggered CPU+heap profile snapshots written as atomic
//     files next to flight bundles, rate-limited like the flight
//     recorder, fired when a flight dump or an SLO burn says "something
//     interesting is happening right now".
//
// Everything is nil-safe and opt-in: a nil *Profiler (or one with
// labeling off) adds zero allocations to the scheduling hot path, which
// keeps the engine's disabled-observability zero-alloc invariant intact.
package prof

import (
	"context"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// Label keys applied to profile samples. Job-level keys are set once per
// engine job; LabelStage nests inside them for each pipeline stage.
const (
	LabelTenant = "tenant"
	LabelDesign = "design"
	LabelMode   = "mode"
	LabelStage  = "stage"
)

// Stage label values used by the engine pipeline.
const (
	StageFingerprint = "fingerprint"
	StageWellPose    = "wellpose"
	StageAnalyze     = "analyze"
	StageSchedule    = "schedule"
	StageDelta       = "delta"
)

// Metric names published by the capture side of the plane.
const (
	MetricCaptures           = "prof.captures"            // counter: completed triggered captures
	MetricCapturesSuppressed = "prof.captures.suppressed" // counter: triggers rate-limited away
	MetricCaptureErrors      = "prof.capture.errors"      // counter: capture attempts that failed
)

// Options configures a Profiler.
type Options struct {
	// Labels enables pprof label attribution on engine jobs and stages.
	Labels bool
	// Dir is the directory triggered captures are written to; empty
	// disables triggered capture (labeling may still be on).
	Dir string
	// CPUDuration is how long a triggered CPU profile records before the
	// file is sealed. Default 2s.
	CPUDuration time.Duration
	// MinInterval is the minimum spacing between triggered captures.
	// Default 30s; negative disables rate limiting (tests).
	MinInterval time.Duration
	// MaxCaptures caps the number of captures over the profiler's
	// lifetime. 0 means the default (32); negative means unlimited.
	MaxCaptures int
	// MutexFraction, when > 0, is passed to runtime.SetMutexProfileFraction
	// so /debug/pprof/mutex has data. 0 leaves the runtime setting alone.
	MutexFraction int
	// BlockRate, when > 0, is passed to runtime.SetBlockProfileRate (ns).
	// 0 leaves the runtime setting alone.
	BlockRate int
	// Metrics receives prof.* counters. Optional.
	Metrics *obs.Registry
	// Logger receives capture lifecycle records. Optional.
	Logger *slog.Logger
	// Now overrides the clock (tests). Optional.
	Now func() time.Time
}

// Profiler is the handle the engine and serve layers hold. Methods are
// safe on a nil receiver: labeling degrades to calling fn directly and
// Capture reports (Capture{}, false).
type Profiler struct {
	labels bool
	cap    *capturer
}

// New builds a Profiler and applies the contention-profiling fractions.
// Constructing with Dir set creates the directory eagerly so a capture
// triggered under duress doesn't also have to mkdir.
func New(opts Options) (*Profiler, error) {
	if opts.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(opts.MutexFraction)
	}
	if opts.BlockRate > 0 {
		runtime.SetBlockProfileRate(opts.BlockRate)
	}
	p := &Profiler{labels: opts.Labels}
	if opts.Dir != "" {
		c, err := newCapturer(opts)
		if err != nil {
			return nil, err
		}
		p.cap = c
	}
	return p, nil
}

// LabelsEnabled reports whether pprof label attribution is on.
func (p *Profiler) LabelsEnabled() bool { return p != nil && p.labels }

// CaptureEnabled reports whether triggered capture is configured.
func (p *Profiler) CaptureEnabled() bool { return p != nil && p.cap != nil }

// noopRestore is returned from JobLabels when labeling is off so the
// disabled path doesn't allocate a closure per job.
var noopRestore = func() {}

// JobLabels attaches the job-level label set {tenant, design, mode} to
// the calling goroutine and returns the labeled context (to be threaded
// into the pipeline so stage labels nest under it) plus a restore
// function the caller must defer. With labeling off it returns ctx
// unchanged and a shared no-op restore.
func (p *Profiler) JobLabels(ctx context.Context, tenant, design, mode string) (context.Context, func()) {
	if p == nil || !p.labels {
		return ctx, noopRestore
	}
	if tenant == "" {
		tenant = "none"
	}
	if design == "" {
		design = "none"
	}
	prev := ctx
	ctx = pprof.WithLabels(ctx, pprof.Labels(LabelTenant, tenant, LabelDesign, design, LabelMode, mode))
	pprof.SetGoroutineLabels(ctx)
	return ctx, func() { pprof.SetGoroutineLabels(prev) }
}

// DoStage runs fn with the stage label layered on top of whatever job
// labels ctx already carries. With labeling off it calls fn directly.
func (p *Profiler) DoStage(ctx context.Context, stage string, fn func()) {
	if p == nil || !p.labels {
		fn()
		return
	}
	pprof.Do(ctx, pprof.Labels(LabelStage, stage), func(context.Context) { fn() })
}

// Capture triggers a rate-limited CPU+heap capture attributed to reason.
// It returns the capture's file paths and true when a capture started;
// false when capture is disabled, rate-limited, or already in flight.
// The heap profile is written synchronously; the CPU profile file appears
// (atomically, via rename) after CPUDuration elapses.
func (p *Profiler) Capture(reason string) (Capture, bool) {
	if p == nil || p.cap == nil {
		return Capture{}, false
	}
	return p.cap.trigger(reason)
}
