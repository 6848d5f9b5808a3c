package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fakeClock is a deterministic Now for rate-limit tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRecorder(t *testing.T, mutate func(*Options)) *Recorder {
	t.Helper()
	opts := Options{
		Dir:         t.TempDir(),
		MinInterval: -1, // no rate limiting unless a test opts in
	}
	if mutate != nil {
		mutate(&opts)
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if got := r.Observe(JobRecord{JobID: "x", ErrKind: ErrKindError}, nil); got != TriggerNone {
		t.Errorf("nil recorder Observe = %q, want none", got)
	}
	if r.Recent() != nil || r.Dir() != "" || r.Dumps() != 0 {
		t.Error("nil recorder leaked state")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New accepted empty Dir")
	}
	if _, err := New(Options{Dir: t.TempDir(), P95Factor: 0.5}); err == nil {
		t.Error("New accepted P95Factor <= 1")
	}
}

func TestTriggerClassification(t *testing.T) {
	cases := []struct {
		name string
		rec  JobRecord
		want Trigger
	}{
		{"success", JobRecord{JobID: "ok", DurationNS: 1000}, TriggerNone},
		{"error", JobRecord{JobID: "e", ErrKind: ErrKindError, Err: "inconsistent"}, TriggerError},
		{"timeout", JobRecord{JobID: "t", ErrKind: ErrKindTimeout, Err: "deadline"}, TriggerTimeout},
		{"illposed", JobRecord{JobID: "i", ErrKind: ErrKindIllPosed, Err: "max y x 5"}, TriggerIllPosed},
		{"canceled", JobRecord{JobID: "c", ErrKind: ErrKindCanceled, Err: "canceled"}, TriggerNone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRecorder(t, nil)
			if got := r.Observe(tc.rec, nil); got != tc.want {
				t.Errorf("Observe(%s) = %q, want %q", tc.name, got, tc.want)
			}
			wantFiles := 0
			if tc.want != TriggerNone {
				wantFiles = 1
			}
			if got := len(bundleFiles(t, r.Dir())); got != wantFiles {
				t.Errorf("bundles = %d, want %d", got, wantFiles)
			}
		})
	}
}

func TestFixedLatencyThreshold(t *testing.T) {
	r := newTestRecorder(t, func(o *Options) { o.FixedThreshold = 10 * time.Millisecond })
	if got := r.Observe(JobRecord{JobID: "fast", DurationNS: int64(time.Millisecond)}, nil); got != TriggerNone {
		t.Errorf("fast job triggered %q", got)
	}
	if got := r.Observe(JobRecord{JobID: "slow", DurationNS: int64(50 * time.Millisecond)}, nil); got != TriggerLatency {
		t.Errorf("slow job = %q, want latency", got)
	}
}

func TestAdaptiveP95Trigger(t *testing.T) {
	r := newTestRecorder(t, func(o *Options) {
		o.P95Factor = 5
		o.MinSamples = 10
	})
	// An early outlier must NOT trigger: the adaptive rule is unarmed
	// below MinSamples.
	if got := r.Observe(JobRecord{JobID: "early", DurationNS: int64(time.Second)}, nil); got != TriggerNone {
		t.Errorf("outlier before MinSamples triggered %q", got)
	}
	// Build a tight baseline around 1ms.
	for i := 0; i < 20; i++ {
		rec := JobRecord{JobID: fmt.Sprintf("base-%d", i), DurationNS: int64(time.Millisecond)}
		if got := r.Observe(rec, nil); got != TriggerNone {
			t.Fatalf("baseline job %d triggered %q", i, got)
		}
	}
	// 100ms against a ~1ms p95 is far past 5×.
	if got := r.Observe(JobRecord{JobID: "outlier", DurationNS: int64(100 * time.Millisecond)}, nil); got != TriggerLatency {
		t.Errorf("outlier = %q, want latency", got)
	}
	files := bundleFiles(t, r.Dir())
	if len(files) != 1 {
		t.Fatalf("bundles = %d, want 1", len(files))
	}
	var b Bundle
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if b.LatencyP95NS <= 0 {
		t.Errorf("bundle p95 = %d, want > 0", b.LatencyP95NS)
	}
	if !strings.Contains(b.Reason, "running p95") {
		t.Errorf("reason %q does not cite the adaptive rule", b.Reason)
	}
}

func TestRateLimiting(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	r := newTestRecorder(t, func(o *Options) {
		o.MinInterval = time.Second
		o.Metrics = reg
		o.Now = clock.now
	})
	fail := JobRecord{JobID: "boom", ErrKind: ErrKindError, Err: "x"}
	r.Observe(fail, nil) // dump 1
	clock.advance(100 * time.Millisecond)
	r.Observe(fail, nil) // inside window: suppressed
	r.Observe(fail, nil) // still suppressed
	clock.advance(2 * time.Second)
	r.Observe(fail, nil) // window elapsed: dump 2
	if got := len(bundleFiles(t, r.Dir())); got != 2 {
		t.Errorf("bundles = %d, want 2", got)
	}
	if got := reg.Counter(MetricDumps).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricDumps, got)
	}
	if got := reg.Counter(MetricDumpsSuppressed).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricDumpsSuppressed, got)
	}
	if got := reg.Counter(MetricRecorded).Value(); got != 4 {
		t.Errorf("%s = %d, want 4", MetricRecorded, got)
	}
}

func TestMaxDumpsBudget(t *testing.T) {
	r := newTestRecorder(t, func(o *Options) { o.MaxDumps = 2 })
	for i := 0; i < 5; i++ {
		r.Observe(JobRecord{JobID: fmt.Sprintf("f%d", i), ErrKind: ErrKindError, Err: "x"}, nil)
	}
	if got := len(bundleFiles(t, r.Dir())); got != 2 {
		t.Errorf("bundles = %d, want 2 (budget)", got)
	}
	if got := r.Dumps(); got != 2 {
		t.Errorf("Dumps() = %d, want 2", got)
	}
}

func TestRingBounds(t *testing.T) {
	r := newTestRecorder(t, func(o *Options) { o.Capacity = 4 })
	for i := 0; i < 10; i++ {
		r.Observe(JobRecord{JobID: fmt.Sprintf("j%d", i), DurationNS: int64(i)}, nil)
	}
	recent := r.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, rec := range recent {
		want := fmt.Sprintf("j%d", 6+i)
		if rec.JobID != want {
			t.Errorf("recent[%d] = %q, want %q (oldest first)", i, rec.JobID, want)
		}
	}
}

func TestEnrichOnlyOnDump(t *testing.T) {
	r := newTestRecorder(t, nil)
	calls := 0
	enrich := func(rec *JobRecord) { calls++ }
	r.Observe(JobRecord{JobID: "ok", DurationNS: 100}, enrich)
	if calls != 0 {
		t.Errorf("enrich ran %d times on a healthy job, want 0", calls)
	}
	r.Observe(JobRecord{JobID: "bad", ErrKind: ErrKindError, Err: "x"}, enrich)
	if calls != 1 {
		t.Errorf("enrich ran %d times on a dumped job, want 1", calls)
	}
}

// TestBundleContents pins the full bundle shape: schema, enrichment
// (spans + provenance + logs), shared-registry metrics, and the ring
// summary.
func TestBundleContents(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("engine.jobs.completed").Add(7)
	r := newTestRecorder(t, func(o *Options) { o.Metrics = reg })

	// Healthy neighbors so Recent has context.
	for i := 0; i < 3; i++ {
		r.Observe(JobRecord{JobID: fmt.Sprintf("ok-%d", i), DurationNS: 1000, CacheHit: i == 2}, nil)
	}

	tr := trace.New(trace.Options{})
	root := tr.StartSpan("job")
	child := root.StartChild("wellpose")
	child.End()
	root.End()
	other := tr.StartSpan("unrelated")
	other.End()

	cap := logx.NewCapture(nil)
	log := slog.New(cap)
	log.Info("job started", "job", "bad")
	log.Error("job failed", "err", errors.New("ill-posed"))

	records, dropped := cap.Logs()
	rec := JobRecord{
		JobID:       "bad",
		Fingerprint: "abc123",
		DurationNS:  int64(3 * time.Millisecond),
		ErrKind:     ErrKindIllPosed,
		Err:         "ill-posed cycle through max constraint",
		StageNS:     map[string]int64{"wellpose": int64(2 * time.Millisecond)},
		Logs:        records,
		LogsDropped: dropped,
	}
	got := r.Observe(rec, func(jr *JobRecord) {
		jr.Spans = trace.FilterRoot(tr.Snapshot(), root.ID())
		jr.Provenance = json.RawMessage(`{"vertex":"y","slack":5}`)
	})
	if got != TriggerIllPosed {
		t.Fatalf("trigger = %q", got)
	}

	files := bundleFiles(t, r.Dir())
	if len(files) != 1 {
		t.Fatalf("bundles = %d, want 1", len(files))
	}
	name := filepath.Base(files[0])
	if !strings.Contains(name, "-illposed-bad.json") {
		t.Errorf("bundle name %q missing trigger/job suffix", name)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v\n%s", err, data)
	}
	if b.Schema != BundleSchema {
		t.Errorf("schema = %q, want %q", b.Schema, BundleSchema)
	}
	if b.Trigger != TriggerIllPosed || !strings.Contains(b.Reason, "well-posedness") {
		t.Errorf("trigger/reason = %q/%q", b.Trigger, b.Reason)
	}
	if b.Job.JobID != "bad" || b.Job.Fingerprint != "abc123" {
		t.Errorf("job identity = %+v", b.Job)
	}
	if len(b.Job.Spans) != 2 {
		t.Errorf("spans = %d, want 2 (root + child, unrelated excluded)", len(b.Job.Spans))
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, b.Job.Provenance); err != nil {
		t.Fatal(err)
	}
	if compact.String() != `{"vertex":"y","slack":5}` {
		t.Errorf("provenance = %s", compact.String())
	}
	if b.Job.StageNS["wellpose"] != int64(2*time.Millisecond) {
		t.Errorf("stage timings = %v", b.Job.StageNS)
	}
	if b.Metrics == nil || b.Metrics.Counters["engine.jobs.completed"] != 7 {
		t.Errorf("bundle metrics missing shared-registry counter: %+v", b.Metrics)
	}
	if len(b.Recent) != 3 {
		t.Errorf("recent = %d entries, want 3 prior jobs", len(b.Recent))
	}
	// Logs must carry the JSONL shape (keys inlined, not an Attrs array).
	var probe struct {
		Job struct {
			Logs []map[string]any `json:"logs"`
		} `json:"job"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	if len(probe.Job.Logs) != 2 {
		t.Fatalf("logs = %d lines, want 2", len(probe.Job.Logs))
	}
	if probe.Job.Logs[0]["job"] != "bad" || probe.Job.Logs[0]["msg"] != "job started" {
		t.Errorf("log line 0 = %v, want inlined attr keys", probe.Job.Logs[0])
	}
	if probe.Job.Logs[1]["err"] != "ill-posed" {
		t.Errorf("log line 1 = %v", probe.Job.Logs[1])
	}
}

func TestSanitizeID(t *testing.T) {
	cases := map[string]string{
		"":                       "job",
		"gcd.cg":                 "gcd.cg",
		"dir/evil name":          "dir_evil_name",
		strings.Repeat("x", 100): strings.Repeat("x", 40),
	}
	for in, want := range cases {
		if got := sanitizeID(in); got != want {
			t.Errorf("sanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestObserveConcurrent(t *testing.T) {
	r := newTestRecorder(t, func(o *Options) {
		o.Capacity = 32
		o.FixedThreshold = time.Minute
	})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				kind := ""
				if i%50 == 0 {
					kind = ErrKindError
				}
				r.Observe(JobRecord{
					JobID:      fmt.Sprintf("g%d-j%d", g, i),
					DurationNS: int64(i) * 1000,
					ErrKind:    kind,
				}, nil)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(r.Recent()); got != 32 {
		t.Errorf("ring holds %d, want 32", got)
	}
	for _, f := range bundleFiles(t, r.Dir()) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("bundle %s is not valid JSON", f)
		}
	}
}

func TestShedStormTrigger(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	r := newTestRecorder(t, func(o *Options) {
		o.ShedStormThreshold = 3
		o.ShedStormWindow = 10 * time.Second
		o.Metrics = reg
		o.Now = clock.now
	})

	// Two sheds inside the window: counted, no storm yet.
	if got := r.ObserveShed("queue full"); got != TriggerNone {
		t.Errorf("first shed = %q, want none", got)
	}
	clock.advance(time.Second)
	r.ObserveShed("queue full")
	if got := len(bundleFiles(t, r.Dir())); got != 0 {
		t.Fatalf("bundle before the threshold: %d", got)
	}

	// The third shed within 10s crosses the threshold and dumps.
	clock.advance(time.Second)
	if got := r.ObserveShed("rate limit exceeded for tenant \"a\""); got != TriggerShed {
		t.Fatalf("storm shed = %q, want %q", got, TriggerShed)
	}
	files := bundleFiles(t, r.Dir())
	if len(files) != 1 {
		t.Fatalf("bundles after storm = %d, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Trigger != TriggerShed {
		t.Errorf("bundle trigger = %q, want %q", b.Trigger, TriggerShed)
	}
	if !strings.Contains(b.Reason, "3 admission refusal(s)") || !strings.Contains(b.Reason, "rate limit") {
		t.Errorf("bundle reason = %q, want the count and the last refusal", b.Reason)
	}
	if b.Job.JobID != "admission" || b.Job.ErrKind != "shed" {
		t.Errorf("bundle job = %+v, want the synthetic admission record", b.Job)
	}
	if b.Metrics == nil {
		t.Error("storm bundle has no metrics snapshot")
	}

	// The dump reset the window: the next storm needs a fresh burst of 3.
	clock.advance(time.Second)
	r.ObserveShed("queue full")
	r.ObserveShed("queue full")
	if got := len(bundleFiles(t, r.Dir())); got != 1 {
		t.Fatalf("window did not reset: %d bundles", got)
	}
	r.ObserveShed("queue full")
	if got := len(bundleFiles(t, r.Dir())); got != 2 {
		t.Fatalf("second storm did not dump: %d bundles", got)
	}

	if got := reg.Counter(MetricSheds).Value(); got != 6 {
		t.Errorf("%s = %d, want 6", MetricSheds, got)
	}
}

func TestShedStormDisabledOnlyCounts(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRecorder(t, func(o *Options) { o.Metrics = reg })
	for i := 0; i < 50; i++ {
		if got := r.ObserveShed("queue full"); got != TriggerNone {
			t.Fatalf("shed %d triggered %q with the storm trigger disabled", i, got)
		}
	}
	if got := len(bundleFiles(t, r.Dir())); got != 0 {
		t.Errorf("bundles = %d, want 0", got)
	}
	if got := reg.Counter(MetricSheds).Value(); got != 50 {
		t.Errorf("%s = %d, want 50", MetricSheds, got)
	}
}

func TestShedStormRateLimited(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := obs.NewRegistry()
	r := newTestRecorder(t, func(o *Options) {
		o.ShedStormThreshold = 1
		o.MinInterval = time.Minute
		o.Metrics = reg
		o.Now = clock.now
	})
	r.ObserveShed("queue full") // dump 1
	clock.advance(time.Second)
	// Still a storm (threshold 1) but inside MinInterval: suppressed.
	if got := r.ObserveShed("queue full"); got != TriggerShed {
		t.Errorf("suppressed storm = %q, want %q (trigger classified, dump withheld)", got, TriggerShed)
	}
	if got := len(bundleFiles(t, r.Dir())); got != 1 {
		t.Errorf("bundles = %d, want 1", got)
	}
	if got := reg.Counter(MetricDumpsSuppressed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricDumpsSuppressed, got)
	}
}

func TestNilRecorderObserveShed(t *testing.T) {
	var r *Recorder
	if got := r.ObserveShed("queue full"); got != TriggerNone {
		t.Errorf("nil recorder ObserveShed = %q, want none", got)
	}
}
