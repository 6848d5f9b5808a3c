// Package flight is a black-box flight recorder for the scheduling
// engine: an always-on bounded ring of recent per-job records that, when
// a job ends badly — an error verdict, a timeout, a well-posedness
// failure, or a latency outlier — writes a self-contained diagnostic
// bundle to disk. Metrics (internal/obs) say *that* p99 moved; spans
// (internal/trace) say *where* a job spent its time, but only while the
// ring still holds them; the flight recorder is the layer that keeps
// the evidence: the job's log lines, its span tree, its stage timings,
// and the binding-chain provenance of the schedule it produced, bundled
// at the moment of failure so a fleet operator (or a feedback-guided
// synthesis loop) can diagnose after the fact without reproducing.
//
// Triggers are tail-based. Error-shaped triggers (error, timeout,
// illposed) fire on the job's verdict; the latency trigger fires on a
// fixed threshold, an adaptive multiple of the running p95 (computed
// over the recorder's own duration histogram once it has MinSamples
// observations), or both. Cancellation is deliberately not a trigger: a
// caller abandoning a job is not evidence of anything wrong with it.
//
// Dumps are rate-limited (MinInterval between bundles, optional MaxDumps
// budget) so a systemic failure — every job in a bad batch timing out —
// produces a few representative bundles and a counter, not a disk full
// of identical JSON. Suppressed dumps are counted in
// flight.dumps_suppressed; written ones in flight.dumps (scraped as
// flight_dumps_total).
//
// A nil *Recorder is a valid disabled recorder: Observe returns
// TriggerNone and records nothing, mirroring internal/trace.
//
// A bundle's logs are one job's records in the shape logx.NewJSONHandler
// writes, kept by a logx.Capture.
package flight

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Trigger names why a bundle was (or would be) dumped.
type Trigger string

const (
	// TriggerNone: the job was unremarkable; it stays in the ring only.
	TriggerNone Trigger = ""
	// TriggerError: a non-cancellation, non-ill-posedness error verdict.
	TriggerError Trigger = "error"
	// TriggerTimeout: the job exceeded its deadline.
	TriggerTimeout Trigger = "timeout"
	// TriggerIllPosed: the graph failed well-posedness (Theorem 2).
	TriggerIllPosed Trigger = "illposed"
	// TriggerLatency: the job finished, but slower than the fixed or
	// adaptive threshold.
	TriggerLatency Trigger = "latency"
	// TriggerShed: an admission layer (internal/serve) refused jobs
	// faster than the configured storm threshold — the signal that the
	// service is saturated or a tenant is flooding, captured with the
	// recent-job context that tells those apart.
	TriggerShed Trigger = "shed"
	// TriggerSLOBurn marks a bundle dumped because the serving layer's
	// SLO tracker crossed its multi-window burn-rate threshold (see
	// internal/serve's SLO tracker and docs/OBSERVABILITY.md).
	TriggerSLOBurn Trigger = "slo_burn"
)

// Metric names the recorder registers in its obs.Registry.
const (
	// MetricDumps counts bundles written; its Prometheus exposition is
	// flight_dumps_total.
	MetricDumps = "flight.dumps"
	// MetricDumpsSuppressed counts triggered dumps skipped by rate
	// limiting or the MaxDumps budget.
	MetricDumpsSuppressed = "flight.dumps_suppressed"
	// MetricDumpErrors counts bundle writes that failed (disk errors).
	MetricDumpErrors = "flight.dump_errors"
	// MetricRecorded counts every job observed by the recorder.
	MetricRecorded = "flight.jobs_recorded"
	// MetricSheds counts admission refusals reported via ObserveShed.
	MetricSheds = "flight.sheds_observed"
)

// ErrKind values the engine assigns when classifying a job's error.
const (
	ErrKindTimeout  = "timeout"
	ErrKindCanceled = "canceled"
	ErrKindIllPosed = "illposed"
	ErrKindError    = "error"
)

// Options configures a Recorder.
type Options struct {
	// Dir is where bundles are written; created if missing. Required.
	Dir string
	// Capacity bounds the ring of recent job records (<= 0 selects 256).
	Capacity int
	// FixedThreshold fires the latency trigger on any job slower than
	// this. Zero disables the fixed rule.
	FixedThreshold time.Duration
	// P95Factor fires the latency trigger on any job slower than
	// P95Factor × the running p95 of observed job durations, once
	// MinSamples jobs have been observed. Zero disables the adaptive
	// rule; values in (0, 1] are rejected (they would trigger on the
	// healthy tail by construction).
	P95Factor float64
	// MinSamples is the observation floor before the adaptive rule may
	// fire (<= 0 selects 32).
	MinSamples int
	// MinInterval is the minimum time between bundle writes; triggered
	// dumps inside the window are counted as suppressed. Zero selects
	// 1s; negative disables rate limiting.
	MinInterval time.Duration
	// MaxDumps caps total bundles written over the recorder's lifetime
	// (a disk budget). Zero means unlimited.
	MaxDumps int
	// ShedStormThreshold arms the shed-storm trigger: when ObserveShed
	// has been called at least this many times inside ShedStormWindow, a
	// bundle with TriggerShed is dumped (rate-limited like every other
	// trigger). Zero disables the trigger — ObserveShed then only counts.
	ShedStormThreshold int
	// ShedStormWindow is the sliding window the threshold is evaluated
	// over (<= 0 selects 10s).
	ShedStormWindow time.Duration
	// Metrics receives the flight.* counters; nil creates a private
	// registry. Share the engine's registry so one /metrics scrape (and
	// one bundle's metrics section) covers both.
	Metrics *obs.Registry
	// Logger, when set, logs one line per bundle written or failed.
	Logger *slog.Logger
	// Now is a clock override for tests; nil selects time.Now.
	Now func() time.Time
}

// JobRecord is one job's retained evidence. The engine fills the
// identity, outcome, and stage-timing fields on every job; Logs, Spans
// and Provenance are enrichment — filled only when a bundle is actually
// written, via the enrich callback passed to Observe.
type JobRecord struct {
	JobID       string    `json:"id"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Time        time.Time `json:"time"`
	WellPose    bool      `json:"wellpose,omitempty"`
	CacheHit    bool      `json:"cache_hit,omitempty"`
	Suppressed  bool      `json:"suppressed,omitempty"`
	// DurationNS is the job's wall-clock engine time.
	DurationNS int64 `json:"duration_ns"`
	// Err is the verdict's message; ErrKind its classification (one of
	// the ErrKind constants), empty on success.
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Trigger is set by the recorder when the record tripped a dump rule
	// (whether or not the dump was rate-limited).
	Trigger Trigger `json:"trigger,omitempty"`
	// StageNS maps pipeline stage name to its duration for the stages
	// this job actually ran.
	StageNS map[string]int64 `json:"stage_ns,omitempty"`
	// Logs holds the job's captured log records (all levels, even those
	// below the live stream's threshold), each one JSON object in
	// logx.NewJSONHandler's shape; LogsDropped counts records over the
	// capture bound.
	Logs        []json.RawMessage `json:"logs,omitempty"`
	LogsDropped int               `json:"logs_dropped,omitempty"`
	// Spans is the job's span tree (enrichment; requires a tracer).
	Spans []trace.SpanData `json:"spans,omitempty"`
	// Provenance is the schedule's binding-chain explanation
	// (enrichment; present when the job produced a schedule).
	Provenance json.RawMessage `json:"provenance,omitempty"`
	// Profiles cross-links profile files captured alongside this dump
	// ({"cpu": path, "heap": path}, see internal/prof). The CPU file
	// appears once its recording window closes.
	Profiles map[string]string `json:"profiles,omitempty"`
}

// Bundle is the self-contained diagnostic artifact written per dump.
type Bundle struct {
	// Schema versions the bundle layout.
	Schema string `json:"schema"`
	// TimeUTC is the dump time in RFC3339.
	TimeUTC string `json:"time_utc"`
	// Trigger is why this bundle exists; Reason is the human sentence
	// (which rule, which threshold, which observed value).
	Trigger Trigger `json:"trigger"`
	Reason  string  `json:"reason"`
	// Job is the full record, enrichment included.
	Job JobRecord `json:"job"`
	// LatencyP95NS is the running p95 at dump time (the adaptive rule's
	// reference), 0 before MinSamples.
	LatencyP95NS int64 `json:"latency_p95_ns,omitempty"`
	// Metrics is a snapshot of the recorder's registry at dump time —
	// with a shared registry, the engine's counters and histograms as
	// they stood when the job went wrong.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Recent summarizes the ring's most recent jobs (newest last), for
	// telling "this one job is slow" from "everything is slow".
	Recent []RecentJob `json:"recent,omitempty"`
}

// BundleSchema is the current Bundle.Schema value.
const BundleSchema = "relsched.flight/v1"

// RecentJob is the compressed ring summary embedded in a bundle.
type RecentJob struct {
	JobID      string  `json:"id"`
	DurationNS int64   `json:"duration_ns"`
	Err        string  `json:"err,omitempty"`
	Trigger    Trigger `json:"trigger,omitempty"`
	CacheHit   bool    `json:"cache_hit,omitempty"`
}

// recentInBundle bounds Bundle.Recent.
const recentInBundle = 16

// Recorder is the flight recorder. Safe for concurrent use by every
// engine worker; a nil *Recorder is a valid disabled recorder.
type Recorder struct {
	opts Options
	now  func() time.Time
	log  *slog.Logger // nil when Options.Logger is

	reg        *obs.Registry
	dumps      *obs.Counter
	suppressed *obs.Counter
	dumpErrors *obs.Counter
	recorded   *obs.Counter
	sheds      *obs.Counter
	durations  *obs.Histogram

	mu       sync.Mutex
	ring     []JobRecord
	next     int
	total    uint64 // jobs ever recorded
	seq      uint64 // bundles written, for filenames
	lastDump time.Time
	// shedTimes holds the timestamps of recent ObserveShed calls inside
	// the storm window, oldest first (pruned on every call).
	shedTimes []time.Time
}

// New creates a Recorder and its dump directory.
func New(opts Options) (*Recorder, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("flight: Options.Dir is required")
	}
	if opts.P95Factor != 0 && opts.P95Factor <= 1 {
		return nil, fmt.Errorf("flight: P95Factor %v must be > 1 (or 0 to disable)", opts.P95Factor)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.MinSamples <= 0 {
		opts.MinSamples = 32
	}
	if opts.MinInterval == 0 {
		opts.MinInterval = time.Second
	}
	if opts.ShedStormWindow <= 0 {
		opts.ShedStormWindow = 10 * time.Second
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Recorder{
		opts:       opts,
		now:        now,
		log:        opts.Logger,
		reg:        reg,
		dumps:      reg.Counter(MetricDumps),
		suppressed: reg.Counter(MetricDumpsSuppressed),
		dumpErrors: reg.Counter(MetricDumpErrors),
		recorded:   reg.Counter(MetricRecorded),
		sheds:      reg.Counter(MetricSheds),
		durations:  reg.Histogram("flight.job.duration"),
	}, nil
}

// Dir returns the bundle directory ("" on a nil recorder).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.opts.Dir
}

// Dumps returns the number of bundles written.
func (r *Recorder) Dumps() uint64 {
	if r == nil {
		return 0
	}
	return r.dumps.Value()
}

// Observe records one finished job: it classifies the outcome against
// the trigger rules, appends the record to the ring, and — when a rule
// fired and rate limiting allows — calls enrich (which may fill the
// record's Logs, Spans and Provenance) and writes a bundle. It returns
// the trigger that fired, TriggerNone otherwise. enrich may be nil.
//
// Observe is cheap for healthy jobs: one histogram observation, one
// p95 snapshot when the adaptive rule is armed, and a ring append under
// a short mutex. Enrichment and bundle I/O only happen on dumps, which
// rate limiting bounds.
func (r *Recorder) Observe(rec JobRecord, enrich func(*JobRecord)) Trigger {
	t, _ := r.ObserveDump(rec, enrich)
	return t
}

// ObserveDump is Observe with the written bundle's path as a second
// result ("" when no bundle was written — healthy job, suppressed dump,
// or write failure). The engine threads the path into latency exemplars
// so a p99 outlier on a scrape resolves straight to its evidence.
func (r *Recorder) ObserveDump(rec JobRecord, enrich func(*JobRecord)) (Trigger, string) {
	if r == nil {
		return TriggerNone, ""
	}
	if rec.Time.IsZero() {
		rec.Time = r.now()
	}
	r.recorded.Inc()

	// Decide the trigger against the p95 of *prior* jobs, then fold this
	// job into the running distribution.
	trigger, reason, p95 := r.classify(&rec)
	rec.Trigger = trigger
	r.durations.Observe(time.Duration(rec.DurationNS))

	r.mu.Lock()
	if len(r.ring) < r.opts.Capacity {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next] = rec
	}
	r.next = (r.next + 1) % r.opts.Capacity
	r.total++
	var allowed bool
	if trigger != TriggerNone {
		now := r.now()
		underBudget := r.opts.MaxDumps == 0 || r.seq < uint64(r.opts.MaxDumps)
		outsideWindow := r.opts.MinInterval < 0 || r.lastDump.IsZero() || now.Sub(r.lastDump) >= r.opts.MinInterval
		if underBudget && outsideWindow {
			allowed = true
			r.seq++
			r.lastDump = now
		}
	}
	var recent []RecentJob
	if allowed {
		// The triggering job was just appended as the ring's newest entry;
		// drop it from Recent — it is already the bundle's Job section.
		recent = r.recentLocked(recentInBundle + 1)
		if n := len(recent); n > 0 {
			recent = recent[:n-1]
		}
	}
	seq := r.seq
	r.mu.Unlock()

	if trigger == TriggerNone {
		return trigger, ""
	}
	if !allowed {
		r.suppressed.Inc()
		return trigger, ""
	}
	if enrich != nil {
		enrich(&rec)
	}
	snap := r.reg.Snapshot()
	bundle := Bundle{
		Schema:       BundleSchema,
		TimeUTC:      r.now().UTC().Format(time.RFC3339Nano),
		Trigger:      trigger,
		Reason:       reason,
		Job:          rec,
		LatencyP95NS: p95,
		Metrics:      &snap,
		Recent:       recent,
	}
	path, err := r.writeBundle(seq, &bundle)
	if err != nil {
		r.dumpErrors.Inc()
		logx.LogAttrs(r.log, slog.LevelError, "flight dump failed", slog.String("job", rec.JobID), slog.String("err", err.Error()))
		return trigger, ""
	}
	r.dumps.Inc()
	logx.LogAttrs(r.log, slog.LevelInfo, "flight dump written",
		slog.String("job", rec.JobID),
		slog.String("trigger", string(trigger)),
		slog.String("path", path),
		slog.Duration("dur", time.Duration(rec.DurationNS)))
	return trigger, path
}

// ObserveShed records one admission refusal (a 429 shed by
// internal/serve's queue, rate-limit, or quota gate). When
// ShedStormThreshold refusals accumulate inside ShedStormWindow, a
// bundle with TriggerShed is written — subject to the same rate limiting
// as job-triggered dumps — whose Job section is a synthetic record
// carrying the refusal reason, and whose Recent section is the ring of
// jobs that were running while intake was being refused (the context
// that tells "service saturated" from "one tenant flooding"). It returns
// TriggerShed when the storm rule fired (dumped or suppressed),
// TriggerNone otherwise. A nil recorder counts nothing.
func (r *Recorder) ObserveShed(reason string) Trigger {
	if r == nil {
		return TriggerNone
	}
	r.sheds.Inc()
	now := r.now()

	r.mu.Lock()
	// Slide the window: drop sheds older than ShedStormWindow.
	cut := 0
	for cut < len(r.shedTimes) && now.Sub(r.shedTimes[cut]) > r.opts.ShedStormWindow {
		cut++
	}
	r.shedTimes = append(r.shedTimes[cut:], now)
	stormed := r.opts.ShedStormThreshold > 0 && len(r.shedTimes) >= r.opts.ShedStormThreshold
	inWindow := len(r.shedTimes)
	var allowed bool
	var recent []RecentJob
	if stormed {
		underBudget := r.opts.MaxDumps == 0 || r.seq < uint64(r.opts.MaxDumps)
		outsideWindow := r.opts.MinInterval < 0 || r.lastDump.IsZero() || now.Sub(r.lastDump) >= r.opts.MinInterval
		if underBudget && outsideWindow {
			allowed = true
			r.seq++
			r.lastDump = now
			// A storm dump resets the window so the next bundle witnesses a
			// fresh burst rather than the tail of this one.
			r.shedTimes = r.shedTimes[:0]
			recent = r.recentLocked(recentInBundle)
		}
	}
	seq := r.seq
	r.mu.Unlock()

	if !stormed {
		return TriggerNone
	}
	if !allowed {
		r.suppressed.Inc()
		return TriggerShed
	}
	why := fmt.Sprintf("%d admission refusal(s) within %v (threshold %d); last: %s",
		inWindow, r.opts.ShedStormWindow, r.opts.ShedStormThreshold, reason)
	snap := r.reg.Snapshot()
	bundle := Bundle{
		Schema:  BundleSchema,
		TimeUTC: now.UTC().Format(time.RFC3339Nano),
		Trigger: TriggerShed,
		Reason:  why,
		Job: JobRecord{
			JobID:   "admission",
			Time:    now,
			Err:     reason,
			ErrKind: "shed",
			Trigger: TriggerShed,
		},
		Metrics: &snap,
		Recent:  recent,
	}
	path, err := r.writeBundle(seq, &bundle)
	if err != nil {
		r.dumpErrors.Inc()
		logx.LogAttrs(r.log, slog.LevelError, "flight shed dump failed", slog.String("err", err.Error()))
		return TriggerShed
	}
	r.dumps.Inc()
	logx.LogAttrs(r.log, slog.LevelWarn, "flight shed-storm dump written",
		slog.Int("sheds_in_window", inWindow),
		slog.String("path", path))
	return TriggerShed
}

// ObserveSLOBurn dumps a bundle witnessing an SLO burn-rate violation:
// the serving layer detected that the error budget is burning faster
// than the paging threshold across both its fast and slow windows. The
// bundle's Job section is a synthetic record carrying the burn summary
// and the cross-linked profile capture paths, and its Recent section is
// the ring of jobs that were running while the budget burned. Dumps are
// subject to the recorder's normal rate limiting; the empty string is
// returned when the dump was suppressed. A nil recorder writes nothing.
func (r *Recorder) ObserveSLOBurn(reason string, profiles map[string]string) (Trigger, string) {
	if r == nil {
		return TriggerNone, ""
	}
	now := r.now()
	r.mu.Lock()
	underBudget := r.opts.MaxDumps == 0 || r.seq < uint64(r.opts.MaxDumps)
	outsideWindow := r.opts.MinInterval < 0 || r.lastDump.IsZero() || now.Sub(r.lastDump) >= r.opts.MinInterval
	allowed := underBudget && outsideWindow
	var recent []RecentJob
	if allowed {
		r.seq++
		r.lastDump = now
		recent = r.recentLocked(recentInBundle)
	}
	seq := r.seq
	r.mu.Unlock()

	if !allowed {
		r.suppressed.Inc()
		return TriggerSLOBurn, ""
	}
	snap := r.reg.Snapshot()
	bundle := Bundle{
		Schema:  BundleSchema,
		TimeUTC: now.UTC().Format(time.RFC3339Nano),
		Trigger: TriggerSLOBurn,
		Reason:  reason,
		Job: JobRecord{
			JobID:    "slo",
			Time:     now,
			Err:      reason,
			ErrKind:  "slo_burn",
			Trigger:  TriggerSLOBurn,
			Profiles: profiles,
		},
		Metrics: &snap,
		Recent:  recent,
	}
	path, err := r.writeBundle(seq, &bundle)
	if err != nil {
		r.dumpErrors.Inc()
		logx.LogAttrs(r.log, slog.LevelError, "flight slo-burn dump failed", slog.String("err", err.Error()))
		return TriggerSLOBurn, ""
	}
	r.dumps.Inc()
	logx.LogAttrs(r.log, slog.LevelWarn, "flight slo-burn dump written",
		slog.String("reason", reason),
		slog.String("path", path))
	return TriggerSLOBurn, path
}

// classify applies the trigger rules to a record. It returns the
// winning trigger, the human reason, and the p95 reference (0 when the
// adaptive rule is not armed yet).
func (r *Recorder) classify(rec *JobRecord) (Trigger, string, int64) {
	switch rec.ErrKind {
	case ErrKindTimeout:
		return TriggerTimeout, fmt.Sprintf("job exceeded its deadline after %v", time.Duration(rec.DurationNS)), 0
	case ErrKindIllPosed:
		return TriggerIllPosed, "graph failed well-posedness (Theorem 2): " + rec.Err, 0
	case ErrKindCanceled:
		return TriggerNone, "", 0
	case ErrKindError:
		return TriggerError, "scheduling error verdict: " + rec.Err, 0
	}
	if r.opts.FixedThreshold > 0 && rec.DurationNS >= int64(r.opts.FixedThreshold) {
		return TriggerLatency,
			fmt.Sprintf("duration %v ≥ fixed threshold %v", time.Duration(rec.DurationNS), r.opts.FixedThreshold), 0
	}
	if r.opts.P95Factor > 0 && r.durations.Count() >= uint64(r.opts.MinSamples) {
		p95 := r.durations.Snapshot().P95NS
		if limit := int64(float64(p95) * r.opts.P95Factor); p95 > 0 && rec.DurationNS > limit {
			return TriggerLatency,
				fmt.Sprintf("duration %v > %.1f× running p95 %v", time.Duration(rec.DurationNS), r.opts.P95Factor, time.Duration(p95)),
				p95
		}
	}
	return TriggerNone, "", 0
}

// recentLocked summarizes the newest n ring entries, oldest first.
// Caller holds r.mu.
func (r *Recorder) recentLocked(n int) []RecentJob {
	records := r.recordsLocked()
	if len(records) > n {
		records = records[len(records)-n:]
	}
	out := make([]RecentJob, len(records))
	for i, rec := range records {
		out[i] = RecentJob{
			JobID:      rec.JobID,
			DurationNS: rec.DurationNS,
			Err:        rec.Err,
			Trigger:    rec.Trigger,
			CacheHit:   rec.CacheHit,
		}
	}
	return out
}

// recordsLocked returns the ring oldest-first. Caller holds r.mu.
func (r *Recorder) recordsLocked() []JobRecord {
	if len(r.ring) < r.opts.Capacity {
		return append([]JobRecord(nil), r.ring...)
	}
	out := make([]JobRecord, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Recent returns the retained job records, oldest first.
func (r *Recorder) Recent() []JobRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recordsLocked()
}

// writeBundle writes the bundle atomically (temp file + rename) and
// returns its path.
func (r *Recorder) writeBundle(seq uint64, b *Bundle) (string, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	stamp := r.now().UTC().Format("20060102T150405.000000000")
	name := fmt.Sprintf("flight-%s-%04d-%s-%s.json", stamp, seq, b.Trigger, sanitizeID(b.Job.JobID))
	path := filepath.Join(r.opts.Dir, name)
	tmp, err := os.CreateTemp(r.opts.Dir, ".flight-*.tmp")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// sanitizeID makes a job ID filesystem-safe and short.
func sanitizeID(id string) string {
	if id == "" {
		return "job"
	}
	var b strings.Builder
	for i := 0; i < len(id) && b.Len() < 40; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
