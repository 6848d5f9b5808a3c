// Package serve turns the batch scheduling engine into a long-running
// network service: `relsched serve` — HTTP/JSON job intake in front of
// internal/engine, with the admission discipline a daemon needs and the
// batch CLI never did. The pieces, front to back:
//
//   - Intake: POST /v1/jobs accepts one job (inline .cg source) or a
//     JSONL batch; GET /v1/jobs/{id} returns status and, once scheduled,
//     the offset table and stats. Results are held in a bounded store.
//   - Admission: a bounded queue between intake and the workers. When it
//     is full the request is shed with 429 + Retry-After instead of
//     queuing unboundedly — backpressure is the contract, not latency
//     collapse. Sheds are counted (engine.jobs.shed) and reported to the
//     flight recorder, which dumps a diagnostic bundle on shed storms.
//   - Tenancy: per-tenant token-bucket rate limits and concurrency
//     quotas keyed by the X-Tenant header (see tenant.go).
//   - Drain: Server.Drain — wired to SIGTERM/SIGINT by the CLI — flips
//     /readyz to 503, refuses new jobs with 503, lets every admitted job
//     finish, and only then releases the process. Exactly one terminal
//     result per accepted job, none lost, none duplicated (pinned by
//     TestDrainExactlyOnce).
//   - Hot reload: POST /v1/admin/config resizes the worker pool, the
//     engine's memo cache, and the tenant policy without a restart.
//
// The observability surface from docs/OBSERVABILITY.md (/metrics,
// /healthz, /readyz, /debug/trace) rides on the same mux via MountDebug,
// so one listener serves both the job API and its own diagnosis.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/relsched"
	"repro/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Engine executes the jobs; required. The server records its
	// admission metrics into Engine.Metrics(), so one /metrics scrape
	// covers intake and execution.
	Engine *engine.Engine
	// Workers is the initial number of serving workers pulling from the
	// admission queue (each runs one job at a time: engine.Schedule, then
	// publishing its result; the GET that reads the result renders its
	// offset table). <= 0 selects half of Engine.Workers(), rounded up:
	// most of a served job's CPU is spent in the HTTP handlers (decode,
	// render, JSON, SSE), which need the other CPUs. Hot-reloadable via
	// /v1/admin/config.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// 429. <= 0 selects DefaultQueueDepth.
	QueueDepth int
	// ResultCapacity bounds the finished-result store (oldest finished
	// results are evicted first; queued and running jobs are never
	// evicted). <= 0 selects DefaultResultCapacity.
	ResultCapacity int
	// RatePerTenant is the sustained per-tenant admission rate in jobs
	// per second (token bucket, see tenant.go); 0 disables rate
	// limiting. Burst is the bucket size (default max(1, ceil(rate))).
	RatePerTenant float64
	Burst         int
	// TenantQuota bounds one tenant's jobs queued or running at once;
	// 0 disables.
	TenantQuota int
	// Tracer, Logger, Flight are the optional observability hooks,
	// shared with the engine (all nil-safe).
	Tracer *trace.Tracer
	Logger *slog.Logger
	Flight *flight.Recorder
	// SLO enables the rolling-window burn-rate tracker (see slo.go):
	// serve.slo.* metrics, GET /v1/slo, and a flight bundle + profile
	// capture pair on budget burn. Nil disables tracking.
	SLO *SLOConfig
	// Prof is the self-profiling plane (shared with the engine): the
	// server uses it for SLO-burn captures and the POST
	// /v1/admin/profile trigger. Nil disables both.
	Prof *prof.Profiler
	// Runtime, when set, is polled every RuntimeInterval (default 5s)
	// for Go runtime telemetry (GC pauses, heap, goroutines, scheduler
	// latency) published on the shared registry and summarized on
	// /v1/status. The poll loop stops when the server drains. Nil keeps
	// the disabled path free of any runtime/metrics reads.
	Runtime         *obs.RuntimeSampler
	RuntimeInterval time.Duration
	// Now is a clock override for tests; nil selects time.Now.
	Now func() time.Time
}

// Defaults for Options.
const (
	DefaultQueueDepth     = 256
	DefaultResultCapacity = 4096
)

// Serve-layer metric names (registered on the engine's registry; the
// shed counter itself is engine.MetricJobsShed). Documented in
// docs/SERVICE.md and docs/OBSERVABILITY.md.
const (
	// MetricJobsAccepted counts jobs admitted past every gate (each will
	// produce exactly one terminal result). Conservation:
	// requested = accepted + shed, and
	// shed = shed_queue_full + shed_rate_limited + shed_quota.
	MetricJobsAccepted = "serve.jobs.accepted"
	// MetricJobsRequested counts jobs asked for via POST /v1/jobs that
	// passed validation (parseable source), before admission. Jobs
	// refused because the server is draining are not counted, so the
	// conservation law above holds exactly at every instant.
	MetricJobsRequested = "serve.jobs.requested"
	// Shed reasons, summing to engine.jobs.shed.
	MetricShedQueueFull   = "serve.shed.queue_full"
	MetricShedRateLimited = "serve.shed.rate_limited"
	MetricShedQuota       = "serve.shed.quota"
	// MetricQueueDepth gauges jobs admitted but not yet claimed by a
	// worker (the admission queue's population).
	MetricQueueDepth = "serve.queue.depth"
	// MetricWorkers gauges the current worker-pool size.
	MetricWorkers = "serve.workers"
	// MetricHTTPRequests counts API requests, labeled
	// {route,method,code}: the R and E of RED per endpoint. The route
	// label is normalized onto a fixed table (see routeLabel) and the
	// family's cardinality is capped (see internal/obs/labels.go), so a
	// path-spraying client cannot mint series.
	MetricHTTPRequests = "serve.http.requests"
	// MetricTenantJobs counts per-tenant job outcomes, labeled
	// {tenant,outcome} with outcome one of accepted, shed, done, failed.
	// Tenant names are client-chosen, so this family leans on the label
	// cap: past the budget new tenants collapse into "other" and the
	// totals stay honest. Conservation per tenant:
	// accepted = done + failed (once drained), and accepted + shed =
	// jobs requested past the drain gate.
	MetricTenantJobs = "serve.tenant.jobs"
	// MetricEventsDropped counts /v1/events deliveries abandoned because
	// a subscriber's buffer was full (the subscriber is disconnected; see
	// events.go).
	MetricEventsDropped = "serve.events.dropped"
	// MetricSpansDropped gauges trace.Tracer.Dropped(): completed spans
	// overwritten by ring wrap-around. A rising value means /debug/trace
	// and flight bundles are missing history — raise the ring capacity.
	MetricSpansDropped = "trace.spans.dropped"
	// MetricJobsPatched counts graph edits applied through
	// PATCH /v1/jobs/{id} (one per edit, not per request). The engine's
	// engine.delta.applied/failed counters split the same traffic by
	// scheduling outcome.
	MetricJobsPatched = "serve.jobs.patched"
	// MetricJobLatency is the end-to-end latency histogram of accepted
	// jobs: admission (202) to terminal state, queue wait included —
	// what a client experiences under load, as opposed to
	// engine.job.duration, which starts when a worker picks the job up.
	MetricJobLatency = "serve.job.latency"
)

// JobStatus is the lifecycle of one accepted job.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// JobRequest is one submitted job: the POST /v1/jobs body (single
// object) or one line of a JSONL batch.
type JobRequest struct {
	// ID is the caller's handle for GET /v1/jobs/{id}; server-assigned
	// ("j-<n>") when empty. Submitting an ID that is still known
	// (queued, running, or retained) is a 409 conflict.
	ID string `json:"id,omitempty"`
	// Source is the constraint graph in the cgio text format. Required.
	Source string `json:"source"`
	// WellPose repairs an ill-posed graph (Theorem 7 minimal
	// serialization) instead of failing it.
	WellPose bool `json:"wellpose,omitempty"`
	// TimeoutMS overrides the engine's per-job timeout when positive.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Design names the workload family the graph belongs to (a paper
	// design name, a corpus label). It is a profile-attribution label
	// only — CPU profile samples carry it when the self-profiling plane
	// is on — never an identifier. Optional.
	Design string `json:"design,omitempty"`
}

// JobView is the GET /v1/jobs/{id} response (and the per-job element of
// a batch POST response).
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Tenant string    `json:"tenant,omitempty"`
	// RequestID and TraceParent echo the submitting request's
	// correlation identity (the X-Request-ID and W3C traceparent the
	// server answered the POST with), so a stored job resolves back to
	// its request trace.
	RequestID   string `json:"request_id,omitempty"`
	TraceParent string `json:"traceparent,omitempty"`
	// Terminal-state fields.
	CacheHit           bool  `json:"cache_hit,omitempty"`
	DurationNS         int64 `json:"duration_ns,omitempty"`
	Anchors            int   `json:"anchors,omitempty"`
	Iterations         int   `json:"iterations,omitempty"`
	SerializationEdges int   `json:"serialization_edges,omitempty"`
	// Patches counts the graph edits applied via PATCH /v1/jobs/{id};
	// the offset table below always reflects the patched schedule.
	Patches   int    `json:"patches,omitempty"`
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Offsets is the schedule's offset table in the CLI text format
	// (GET only; mode selected by ?mode=full|relevant|irredundant,
	// default irredundant).
	Offsets string `json:"offsets,omitempty"`
}

// jobRecord is the server-side state of one accepted job: the parsed
// inputs until a worker claims it, the engine result after.
type jobRecord struct {
	id         string
	tenant     string
	design     string
	graph      *cg.Graph // the submitted graph, nil once a worker takes the job
	wellPose   bool
	timeout    time.Duration
	acceptedAt time.Time
	status     JobStatus
	result     engine.Result // valid once status is terminal
	errKind    string

	// Request-scoped correlation identity, set at admission from the
	// submitting request's middleware metadata: the X-Request-ID and the
	// response traceparent echoed in JobView, and the request root span
	// the engine's job span is parented under. reqSpan is ended long
	// before the job runs; only its immutable ID/Root are ever read.
	requestID   string
	traceParent string
	reqSpan     *trace.Span

	// renderMu serializes PATCH delta application against offset
	// rendering: Schedule.Apply mutates the record's (private, forked)
	// graph in place, and WriteOffsets reads that graph's vertex names.
	// Lock order is renderMu before storeMu, never the reverse — view and
	// the patch handler take renderMu first and storeMu briefly inside.
	renderMu sync.Mutex
	// patches counts the graph edits applied via PATCH /v1/jobs/{id}.
	// Zero means the record still shares the engine's immutable cache
	// entry; the first patch forks it (see handleJobPatch).
	patches int
}

// Server is the scheduling daemon. Create with New, mount via Handler,
// stop with Drain. Safe for concurrent use.
type Server struct {
	eng     *engine.Engine
	limiter *tenantLimiter
	log     *slog.Logger
	tracer  *trace.Tracer
	flight  *flight.Recorder
	prof    *prof.Profiler
	slo     *sloTracker         // nil when SLO tracking is off
	runtime *obs.RuntimeSampler // nil when runtime telemetry is off
	now     func() time.Time

	// metrics resolved once (see the Metric* names).
	requested, accepted  *obs.Counter
	shed, shedQueue      *obs.Counter
	shedRate, shedQuota  *obs.Counter
	patched              *obs.Counter
	eventsDropped        *obs.Counter
	httpReqVec           *obs.CounterVec
	tenantJobs           *obs.CounterVec
	jobLatency           *obs.Histogram
	queueDepth, workersG *obs.Gauge
	spansDropped         *obs.Gauge
	queueCap, resultCap  int

	// events fans the job lifecycle out to /v1/events subscribers.
	events *eventHub

	// Admission queue. intakeMu is held shared by enqueuers and
	// exclusively by Drain: a send can never race the close.
	intakeMu sync.RWMutex
	draining atomic.Bool
	queue    chan *jobRecord

	// Worker pool: resizable (quit tokens shrink it), wg tracks workers
	// for drain.
	poolMu  sync.Mutex
	workers int
	quit    chan struct{}
	wg      sync.WaitGroup

	// Job store: every accepted job from admission to (bounded)
	// retention after completion.
	storeMu  sync.Mutex
	store    map[string]*jobRecord
	finished []string // terminal job IDs, oldest first, for eviction
	seq      uint64   // server-assigned job IDs

	// testJobGate, when non-nil, blocks each worker at job start until
	// the gate channel yields; white-box tests use it to hold jobs
	// in-flight deterministically.
	testJobGate chan struct{}

	drainOnce sync.Once
	drained   chan struct{} // closed when the last worker exits
}

// New creates a Server and starts its worker pool. The server is
// immediately ready to accept jobs (mount Handler on a listener, e.g.
// via StartHTTP).
func New(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, fmt.Errorf("serve: Options.Engine is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = (opts.Engine.Workers() + 1) / 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.ResultCapacity <= 0 {
		opts.ResultCapacity = DefaultResultCapacity
	}
	if opts.Burst <= 0 && opts.RatePerTenant > 0 {
		opts.Burst = int(opts.RatePerTenant + 0.999)
		if opts.Burst < 1 {
			opts.Burst = 1
		}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	reg := opts.Engine.Metrics()
	s := &Server{
		eng:           opts.Engine,
		limiter:       newTenantLimiter(opts.RatePerTenant, opts.Burst, opts.TenantQuota, now),
		log:           opts.Logger,
		tracer:        opts.Tracer,
		flight:        opts.Flight,
		prof:          opts.Prof,
		runtime:       opts.Runtime,
		now:           now,
		requested:     reg.Counter(MetricJobsRequested),
		accepted:      reg.Counter(MetricJobsAccepted),
		shed:          reg.Counter(engine.MetricJobsShed),
		shedQueue:     reg.Counter(MetricShedQueueFull),
		shedRate:      reg.Counter(MetricShedRateLimited),
		shedQuota:     reg.Counter(MetricShedQuota),
		patched:       reg.Counter(MetricJobsPatched),
		eventsDropped: reg.Counter(MetricEventsDropped),
		httpReqVec:    reg.CounterVec(MetricHTTPRequests, "route", "method", "code"),
		tenantJobs:    reg.CounterVec(MetricTenantJobs, "tenant", "outcome"),
		jobLatency:    reg.Histogram(MetricJobLatency),
		queueDepth:    reg.Gauge(MetricQueueDepth),
		workersG:      reg.Gauge(MetricWorkers),
		spansDropped:  reg.Gauge(MetricSpansDropped),
		queueCap:      opts.QueueDepth,
		resultCap:     opts.ResultCapacity,
		queue:         make(chan *jobRecord, opts.QueueDepth),
		quit:          make(chan struct{}),
		store:         make(map[string]*jobRecord),
		drained:       make(chan struct{}),
	}
	if opts.SLO != nil {
		s.slo = newSLOTracker(*opts.SLO, reg)
	}
	s.events = newEventHub(func(n uint64) { s.eventsDropped.Add(n) })
	s.resizePool(opts.Workers)
	if s.runtime != nil {
		interval := opts.RuntimeInterval
		if interval <= 0 {
			interval = 5 * time.Second
		}
		s.runtime.Sample()
		go s.pollRuntime(interval)
	}
	return s, nil
}

// pollRuntime republishes the Go runtime telemetry until drain
// completes. One loop per server; RuntimeSampler is single-consumer.
func (s *Server) pollRuntime(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.drained:
			return
		case <-tick.C:
			s.runtime.Sample()
		}
	}
}

// Ready reports whether the server accepts new jobs (false once Drain
// starts); it is the /readyz predicate.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Workers returns the current worker-pool size.
func (s *Server) Workers() int {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return s.workers
}

// QueueDepth returns the number of admitted jobs not yet claimed by a
// worker, and the queue's capacity.
func (s *Server) QueueDepth() (depth, capacity int) {
	return len(s.queue), s.queueCap
}

// resizePool grows or shrinks the worker pool to n (n >= 1). Shrinking
// hands out quit tokens; a worker mid-job finishes that job first, so a
// resize never abandons work. Caller must not hold poolMu.
func (s *Server) resizePool(n int) {
	if n < 1 {
		n = 1
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	for s.workers < n {
		s.workers++
		s.wg.Add(1)
		go s.worker()
	}
	for s.workers > n {
		s.workers--
		s.quit <- struct{}{}
	}
	s.workersG.Set(int64(s.workers))
}

// worker pulls admitted jobs until the queue closes (drain) or it
// receives a quit token (pool shrink).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// A pending quit token wins over more work, so shrinks settle
		// even while the queue is hot.
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case rec, ok := <-s.queue:
			if !ok {
				return
			}
			s.queueDepth.Add(-1)
			s.runJob(rec)
		}
	}
}

// runJob executes one admitted job to its terminal state. Jobs run with
// context.Background() deliberately: an accepted job is a promise, and
// the per-job timeout (engine Options or JobRequest.TimeoutMS) bounds
// how long the promise can take.
func (s *Server) runJob(rec *jobRecord) {
	if s.testJobGate != nil {
		<-s.testJobGate
	}
	// The record hands its graph to the engine and drops it: a finished
	// job keeps only its result, whose graph on a cache hit is the cached
	// entry's, so the submitted copy becomes garbage.
	s.storeMu.Lock()
	rec.status = StatusRunning
	g := rec.graph
	rec.graph = nil
	s.storeMu.Unlock()
	s.events.publish(s.event(EventStarted, rec))

	// Parent/RequestID hand the request's correlation identity to the
	// engine: the job span becomes a child of the (already ended) request
	// span, and stage exemplars carry the request ID.
	res := s.eng.Schedule(context.Background(), engine.Job{
		ID:        rec.id,
		Graph:     g,
		WellPose:  rec.wellPose,
		Timeout:   rec.timeout,
		Parent:    rec.reqSpan,
		RequestID: rec.requestID,
		Tenant:    rec.tenant,
		Design:    rec.design,
	})

	s.finalizeJob(rec, res)
}

// finalizeJob publishes the terminal state and fires the post-job
// bookkeeping (latency, limiter, SLO, events). It renders nothing: a
// finished job holds its schedule, and each GET or PATCH renders the
// offset table it returns (see view).
func (s *Server) finalizeJob(rec *jobRecord, res engine.Result) {
	// Bookkeeping comes before the record turns terminal, so a client
	// that sees the job finished (GET or event) also finds its latency
	// recorded, its tenant slot released and its outcome counted.
	kind := errKind(res.Err)
	latency := s.now().Sub(rec.acceptedAt)
	if spanID := uint64(rec.reqSpan.ID()); spanID == 0 && rec.requestID == "" && res.FlightBundle == "" {
		s.jobLatency.Observe(latency)
	} else {
		// The exemplar's span is the request root — the top of the tree
		// the traceparent named — so a slow latency bucket resolves
		// straight to the whole request's trace and flight bundle.
		s.jobLatency.ObserveExemplar(latency, obs.Exemplar{
			SpanID:     uint64(rec.reqSpan.ID()),
			RequestID:  rec.requestID,
			FlightPath: res.FlightBundle,
		})
	}
	s.limiter.release(rec.tenant)
	if reason, fire := s.slo.observe(s.now(), latency, res.Err != nil); fire {
		// The slow part (registry snapshot, bundle write, profile start)
		// runs off the worker goroutine; cooldown guarantees no pile-up.
		go s.fireSLOBurn(reason)
	}
	status, ev := StatusDone, s.event(EventDone, rec)
	if res.Err != nil {
		status, ev = StatusFailed, s.event(EventFailed, rec)
		ev.Reason = kind
	}
	s.tenantJobs.With(rec.tenant, string(status)).Inc()

	s.storeMu.Lock()
	rec.result = res
	rec.status = status
	rec.errKind = kind
	s.finished = append(s.finished, rec.id)
	s.evictLocked()
	s.storeMu.Unlock()

	s.events.publish(ev)
	if res.FlightBundle != "" {
		ev := s.event(EventFlight, rec)
		ev.Flight = res.FlightBundle
		s.events.publish(ev)
	}
	logx.LogAttrs(s.log, slog.LevelDebug, "job finalized", slog.String("job", rec.id), slog.String("status", string(status)))
}

// fireSLOBurn is the burn-rate trigger action: capture CPU+heap
// profiles, dump a flight bundle cross-linking them, record the pair on
// /v1/slo, and announce it on the event stream. Each artifact is
// independently rate-limited and optional — a burn with the flight
// recorder off still captures profiles, and vice versa.
func (s *Server) fireSLOBurn(reason string) {
	var profiles map[string]string
	if pc, ok := s.prof.Capture("slo_burn"); ok {
		profiles = pc.Paths()
	}
	_, bundle := s.flight.ObserveSLOBurn(reason, profiles)
	s.slo.setLastBurn(SLOBurn{
		TimeUTC:  s.now().UTC().Format(time.RFC3339Nano),
		Reason:   reason,
		Flight:   bundle,
		Profiles: profiles,
	})
	ev := s.event(EventSLOBurn, nil)
	ev.Reason = reason
	ev.Flight = bundle
	s.events.publish(ev)
	logx.LogAttrs(s.log, slog.LevelWarn, "slo burn", slog.String("reason", reason), slog.String("flight", bundle))
}

// evictLocked drops the oldest finished results over the retention
// bound. Caller holds storeMu.
func (s *Server) evictLocked() {
	for len(s.finished) > s.resultCap {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.store, id)
	}
}

// parsedJob is one validated intake job, ready for admission.
type parsedJob struct {
	id       string
	design   string
	graph    *cg.Graph
	wellPose bool
	timeout  time.Duration
}

// apiError is an admission or lookup refusal, rendered as a JSON error
// body with the HTTP status (and Retry-After header when set).
type apiError struct {
	status     int
	msg        string
	reason     string // shed reason for 429s: queue_full, rate, quota
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// submit admits a batch of validated jobs atomically: either every job
// is accepted (one jobRecord each, queued in request order) or none is
// and the refusal names why. Gates in order: drain (503), tenant rate
// limit and quota (429), queue capacity (429). A refused batch consumes
// no tokens and no quota. meta is the submitting request's correlation
// identity (never nil; the zero meta means no middleware ran).
func (s *Server) submit(tenant string, jobs []parsedJob, meta *reqMeta) ([]*jobRecord, *apiError) {
	n := len(jobs)

	// Shared intake lock: Drain takes it exclusively after flipping the
	// draining flag, so a submit that saw draining==false still enqueues
	// before the queue closes — a send can never race the close.
	s.intakeMu.RLock()
	defer s.intakeMu.RUnlock()
	if s.draining.Load() {
		return nil, &apiError{status: 503, msg: "server is draining; not accepting jobs"}
	}
	// Counted after the drain gate so requested = accepted + shed holds
	// exactly: a drain refusal is lifecycle, not admission control.
	s.requested.Add(uint64(n))

	if v := s.limiter.admit(tenant, n); !v.ok {
		s.shed.Add(uint64(n))
		reason := "tenant rate limit"
		if v.reason == "quota" {
			s.shedQuota.Add(uint64(n))
			reason = "tenant quota"
		} else {
			s.shedRate.Add(uint64(n))
		}
		detail := fmt.Sprintf("%s exceeded for tenant %q (%d job(s))", reason, tenant, n)
		s.flight.ObserveShed(detail)
		s.publishShed(tenant, v.reason, n, meta)
		logx.LogAttrs(s.log, slog.LevelWarn, "jobs shed", slog.String("reason", v.reason),
			slog.String("tenant", tenant), slog.Int("jobs", n))
		return nil, &apiError{status: 429, msg: detail, reason: v.reason, retryAfter: v.retryAfter}
	}

	s.storeMu.Lock()
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		if _, exists := s.store[j.id]; exists {
			s.storeMu.Unlock()
			s.releaseN(tenant, n)
			return nil, &apiError{status: 409, msg: fmt.Sprintf("job id %q already exists", j.id)}
		}
	}
	// Capacity check under storeMu: every enqueuer serializes here and
	// workers only ever shrink the queue, so the reservation holds and
	// the sends below cannot block.
	if depth := len(s.queue); depth+n > s.queueCap {
		s.storeMu.Unlock()
		s.releaseN(tenant, n)
		s.shed.Add(uint64(n))
		s.shedQueue.Add(uint64(n))
		detail := fmt.Sprintf("admission queue full (%d/%d), refusing %d job(s)", depth, s.queueCap, n)
		s.flight.ObserveShed(detail)
		s.publishShed(tenant, "queue_full", n, meta)
		logx.LogAttrs(s.log, slog.LevelWarn, "jobs shed", slog.String("reason", "queue_full"),
			slog.String("tenant", tenant), slog.Int("jobs", n))
		return nil, &apiError{status: 429, msg: detail, reason: "queue_full", retryAfter: time.Second}
	}
	records := make([]*jobRecord, n)
	for i, j := range jobs {
		id := j.id
		if id == "" {
			s.seq++
			id = fmt.Sprintf("j-%d", s.seq)
			// A server-assigned ID colliding with a client-chosen one is
			// possible; keep bumping until free.
			for _, exists := s.store[id]; exists; _, exists = s.store[id] {
				s.seq++
				id = fmt.Sprintf("j-%d", s.seq)
			}
		}
		rec := &jobRecord{
			id:          id,
			tenant:      tenant,
			design:      j.design,
			graph:       j.graph,
			wellPose:    j.wellPose,
			timeout:     j.timeout,
			acceptedAt:  s.now(),
			status:      StatusQueued,
			requestID:   meta.requestID,
			traceParent: meta.traceParent,
			reqSpan:     meta.span,
		}
		s.store[id] = rec
		records[i] = rec
	}
	for _, rec := range records {
		s.queue <- rec
	}
	s.storeMu.Unlock()

	s.queueDepth.Add(int64(n))
	s.accepted.Add(uint64(n))
	s.tenantJobs.With(tenant, "accepted").Add(uint64(n))
	for _, rec := range records {
		s.events.publish(s.event(EventAdmitted, rec))
	}
	logx.LogAttrs(s.log, slog.LevelInfo, "jobs accepted", slog.String("tenant", tenant), slog.Int("jobs", n))
	return records, nil
}

// publishShed records the tenant outcome and emits one shed event for a
// refused batch.
func (s *Server) publishShed(tenant, reason string, n int, meta *reqMeta) {
	s.tenantJobs.With(tenant, "shed").Add(uint64(n))
	ev := s.event(EventShed, nil)
	ev.Tenant = tenant
	ev.Reason = reason
	ev.Jobs = n
	ev.RequestID = meta.requestID
	s.events.publish(ev)
}

// releaseN returns n admitted slots to the tenant (refusal after the
// limiter said yes).
func (s *Server) releaseN(tenant string, n int) {
	for i := 0; i < n; i++ {
		s.limiter.release(tenant)
	}
}

// Drain performs the graceful-shutdown handshake, idempotently:
//
//  1. flip draining — /readyz answers 503 and POST /v1/jobs answers 503
//     from this moment;
//  2. wait out submitters already past the flag (the intake lock), then
//     close the admission queue;
//  3. wait for the workers to finish every admitted job — queued jobs
//     are executed, not dropped, so every 202 the server ever returned
//     resolves to exactly one terminal result.
//
// Drain returns nil once the pool is idle, or ctx.Err() if the deadline
// expires first (jobs may then still be running; the caller decides
// whether to hard-exit). Only the first call drains; later calls just
// wait on the same completion.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.intakeMu.Lock()
		close(s.queue)
		s.intakeMu.Unlock()
		logx.LogAttrs(s.log, slog.LevelInfo, "drain started", slog.Int("queued", len(s.queue)))
		go func() {
			s.wg.Wait()
			// Every terminal event is published by now: the stream closes
			// complete, after the last done/failed, never before.
			s.events.close()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		logx.LogAttrs(s.log, slog.LevelInfo, "drain complete")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drained reports drain completion (closed when the last worker exits).
func (s *Server) Drained() <-chan struct{} { return s.drained }

// job looks up a record by ID.
func (s *Server) job(id string) (*jobRecord, bool) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	rec, ok := s.store[id]
	return rec, ok
}

// view renders a record. withOffsets adds the offset table (terminal
// successful jobs only), rendered afresh on every call; the schedule's
// offsets are immutable once published, so rendering happens outside
// storeMu on a copied result — but under the record's renderMu, because
// a concurrent PATCH mutates the record's graph in place and the
// renderer reads its vertex names.
func (s *Server) view(rec *jobRecord, mode relsched.AnchorMode, withOffsets bool) JobView {
	if withOffsets {
		rec.renderMu.Lock()
		defer rec.renderMu.Unlock()
	}
	s.storeMu.Lock()
	v := JobView{ID: rec.id, Status: rec.status, Tenant: rec.tenant, Patches: rec.patches,
		RequestID: rec.requestID, TraceParent: rec.traceParent}
	res := rec.result
	errKind := rec.errKind
	s.storeMu.Unlock()

	switch v.Status {
	case StatusDone:
		v.CacheHit = res.CacheHit
		v.DurationNS = res.Duration.Nanoseconds()
		v.SerializationEdges = res.SerializationEdges
		if res.Info != nil {
			v.Anchors = res.Info.NumAnchors()
		}
		if res.Schedule != nil {
			v.Iterations = res.Schedule.Iterations
			if withOffsets {
				var b strings.Builder
				if err := cgio.WriteOffsets(&b, res.Schedule, mode); err == nil {
					v.Offsets = b.String()
				}
			}
		}
	case StatusFailed:
		v.DurationNS = res.Duration.Nanoseconds()
		if res.Err != nil {
			v.Error = res.Err.Error()
		}
		v.ErrorKind = errKind
	}
	return v
}

// errKind classifies a job verdict with the flight recorder's taxonomy.
func errKind(err error) string {
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

// StatusView is the GET /v1/status (and admin config) response.
type StatusView struct {
	Ready         bool    `json:"ready"`
	Draining      bool    `json:"draining"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	CacheCapacity int     `json:"cache_capacity"`
	RatePerTenant float64 `json:"rate_per_tenant"`
	Burst         int     `json:"burst"`
	TenantQuota   int     `json:"tenant_quota"`
	JobsQueued    int     `json:"jobs_queued"`
	JobsRunning   int     `json:"jobs_running"`
	JobsDone      int     `json:"jobs_done"`
	JobsFailed    int     `json:"jobs_failed"`
	// Patches totals graph edits applied via PATCH /v1/jobs/{id}; the
	// Delta* fields split the same traffic by engine outcome (see
	// engine.MetricDelta*). DeltaWarmHits counts jobs answered from the
	// generation-keyed warm map.
	Patches       uint64 `json:"patches"`
	DeltaApplied  uint64 `json:"delta_applied"`
	DeltaFailed   uint64 `json:"delta_failed"`
	DeltaWarmHits uint64 `json:"delta_warm_hits"`
	// SpansDropped is trace.Tracer.Dropped(): span history lost to ring
	// wrap-around since the process started.
	SpansDropped uint64 `json:"spans_dropped"`
	// EventsDropped is serve.events.dropped: /v1/events deliveries
	// abandoned because a subscriber overflowed (the subscriber was
	// disconnected and must re-sync). EventSubscribers is the live SSE
	// subscription count.
	EventsDropped    uint64 `json:"events_dropped"`
	EventSubscribers int    `json:"event_subscribers"`
	// Runtime summarizes the Go runtime telemetry bridge (present only
	// when the server was started with runtime sampling on).
	Runtime *RuntimeStatus `json:"runtime,omitempty"`
}

// RuntimeStatus is the /v1/status summary of the runtime/metrics bridge
// (see obs.RuntimeSampler; the full histograms are on /metrics).
type RuntimeStatus struct {
	Goroutines        int64 `json:"goroutines"`
	HeapLiveBytes     int64 `json:"heap_live_bytes"`
	GCCycles          int64 `json:"gc_cycles"`
	GCPauseP99NS      int64 `json:"gc_pause_p99_ns"`
	SchedLatencyP99NS int64 `json:"sched_latency_p99_ns"`
}

// Status snapshots the server.
func (s *Server) Status() StatusView {
	rate, burst, quota := s.limiter.policy()
	s.spansDropped.Set(int64(s.tracer.Dropped()))
	snap := s.eng.Metrics().Snapshot()
	counters := snap.Counters
	v := StatusView{
		Ready:         s.Ready(),
		Draining:      s.draining.Load(),
		Workers:       s.Workers(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.queueCap,
		CacheCapacity: s.eng.CacheCapacity(),
		RatePerTenant: rate,
		Burst:         burst,
		TenantQuota:   quota,
		Patches:       counters[MetricJobsPatched],
		DeltaApplied:  counters[engine.MetricDeltaApplied],
		DeltaFailed:   counters[engine.MetricDeltaFailed],
		DeltaWarmHits: counters[engine.MetricDeltaWarmHits],
		SpansDropped:  s.tracer.Dropped(),
		EventsDropped: counters[MetricEventsDropped],
	}
	v.EventSubscribers = s.events.subscribers()
	if s.runtime != nil {
		// Sample on read too, so /v1/status is current even between polls.
		s.runtime.Sample()
		snap = s.eng.Metrics().Snapshot()
		v.Runtime = &RuntimeStatus{
			Goroutines:        snap.Gauges[obs.MetricRuntimeGoroutines],
			HeapLiveBytes:     snap.Gauges[obs.MetricRuntimeHeapLiveBytes],
			GCCycles:          snap.Gauges[obs.MetricRuntimeGCCycles],
			GCPauseP99NS:      snap.Histograms[obs.MetricRuntimeGCPause].P99NS,
			SchedLatencyP99NS: snap.Histograms[obs.MetricRuntimeSchedLatency].P99NS,
		}
	}
	s.storeMu.Lock()
	for _, rec := range s.store {
		switch rec.status {
		case StatusQueued:
			v.JobsQueued++
		case StatusRunning:
			v.JobsRunning++
		case StatusDone:
			v.JobsDone++
		case StatusFailed:
			v.JobsFailed++
		}
	}
	s.storeMu.Unlock()
	return v
}
