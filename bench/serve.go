package relbench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serveLoad drives the real `relsched serve` daemon, started with its
// default flags on a loopback port, over at most two TCP connections:
// the /v1/events stream that signals each job's completion, and one
// keep-alive connection for every POST and GET.
type serveLoad struct {
	open bool // serve-steady's open loop; serve-churn is a closed loop
	r    *run
	jobs []job
	next func() (job, tenant int)

	d       *daemon
	client  *http.Client
	events  io.ReadCloser
	sseDone chan struct{}

	mu      sync.Mutex
	pending map[string]*serveOp
	ops     []*serveOp
	seq     atomic.Int64
	drawMu  sync.Mutex

	inflight  sync.WaitGroup
	completed chan *serveOp // open loop: ops whose terminal event arrived
	verifyQ   chan verifyItem
	verifyWG  sync.WaitGroup
	closeQ    sync.Once

	t0 time.Time // start of the first timed window
}

// serveOp is one job's trip through the daemon.
type serveOp struct {
	seq    int64
	id     string
	job    int
	tenant int // -1: no X-Tenant header
	window int

	// due is when the op was scheduled to start: its slot in the open
	// loop, or the end of the client's previous op in the closed loop.
	due, issued, posted, doneAt, getStart, got time.Time

	respBytes         int
	failed, eventFail bool
	// async ops are fetched by the open loop's completer when their
	// event arrives; the others by the goroutine that posted them.
	async              bool
	done, postRecorded chan struct{}
}

type verifyItem struct {
	op   *serveOp
	body []byte
}

func (s *serveLoad) inputs(r *run) error {
	s.r = r
	p := r.p
	rng := rand.New(rand.NewSource(p.Seed))
	t := time.Now()
	var err error
	if s.open {
		if s.jobs, err = designJobs(); err != nil {
			return err
		}
		random, err := randomJobs(rng, sized(p.BatchSizes[0]), p.SteadyRandom, 0)
		if err != nil {
			return err
		}
		s.jobs = append(s.jobs, random...)
	} else {
		large := int(float64(p.ChurnGraphs)*p.ChurnLargeShare + 0.5)
		if s.jobs, err = randomJobs(rng, sized(p.BatchSizes[0]), p.ChurnGraphs-large, 0); err != nil {
			return err
		}
		more, err := randomJobs(rng, sized(p.BatchSizes[1]), large, 0)
		if err != nil {
			return err
		}
		s.jobs = append(s.jobs, more...)
	}
	r.corpusDigest = corpusDigest(s.jobs)
	r.logf("%d graphs, expectations from relsched.ReferenceCompute in %.2fs", len(s.jobs), time.Since(t).Seconds())

	s.next = s.drawer(p.Seed + 1)
	fresh := s.drawer(p.Seed + 1)
	r.opsDigest = digestDraws(4096, func() []int64 {
		j, t := fresh()
		return []int64{int64(j), int64(t)}
	})
	return nil
}

func (s *serveLoad) setup(ctx context.Context, r *run) ([]time.Duration, error) {
	p := r.p
	if r.env.Relsched == "" {
		return nil, errors.New("the serve workloads need a relsched binary")
	}
	setups := make([]time.Duration, p.SetupReps)
	for i := range setups {
		client := newClient()
		d, took, err := startDaemon(ctx, r.env.Relsched, client)
		if err != nil {
			return nil, err
		}
		setups[i] = took
		if i < len(setups)-1 {
			client.CloseIdleConnections()
			if err := d.stop(); err != nil {
				return nil, err
			}
			continue
		}
		s.d, s.client = d, client
	}
	return setups, s.connect(ctx)
}

// drawer returns the op generator: serve-steady draws Zipf(s) ranks
// over a seeded permutation of the corpus and a tenant per job;
// serve-churn draws graphs uniformly.
func (s *serveLoad) drawer(seed int64) func() (int, int) {
	rng := rand.New(rand.NewSource(seed))
	p := s.r.p
	if !s.open {
		return func() (int, int) { return rng.Intn(len(s.jobs)), -1 }
	}
	perm := rng.Perm(len(s.jobs))
	zipf := rand.NewZipf(rng, p.SteadyZipfS, 1, uint64(len(s.jobs)-1))
	return func() (int, int) {
		return perm[zipf.Uint64()], rng.Intn(p.SteadyTenants)
	}
}

// newClient is the request connection: one keep-alive TCP connection
// that every POST and GET of the run shares.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// connect opens the event stream and waits until it delivers events:
// the daemon subscribes the stream only after answering its GET, so
// probe jobs are posted until one's completion arrives.
func (s *serveLoad) connect(ctx context.Context) error {
	s.pending = map[string]*serveOp{}
	// Sized well past any backlog a healthy run reaches; a stalled
	// consumer blocks the event reader, the daemon then drops the
	// stream, and the run reports the drop.
	s.completed = make(chan *serveOp, 1<<16)
	// Bodies wait here for the oracle, so a slow check never holds up
	// an issuer.
	s.verifyQ = make(chan verifyItem, 1<<12)
	s.sseDone = make(chan struct{})
	sse := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.d.base+"/v1/events", nil)
	if err != nil {
		return err
	}
	resp, err := sse.Do(req)
	if err != nil {
		return fmt.Errorf("open event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("open event stream: %s", resp.Status)
	}
	s.events = resp.Body
	go s.readEvents()
	s.verifyWG.Add(1)
	go s.verifier()
	for try := 0; try < 20; try++ {
		op := s.newOp(time.Now(), -1, 0, -1)
		s.post(op)
		if op.failed {
			return fmt.Errorf("probe job refused: %s", s.d.log)
		}
		select {
		case <-op.done:
			s.get(op)
			return nil
		case <-time.After(500 * time.Millisecond):
			s.unregister(op)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return errors.New("the event stream delivered no completion for 20 probe jobs")
}

// drawOp builds the next op of the load from the op generator.
func (s *serveLoad) drawOp(due time.Time, window int) *serveOp {
	s.drawMu.Lock()
	j, t := s.next()
	s.drawMu.Unlock()
	return s.newOp(due, window, j, t)
}

func (s *serveLoad) newOp(due time.Time, window, job, tenant int) *serveOp {
	seq := s.seq.Add(1)
	return &serveOp{seq: seq, id: "rb-" + strconv.FormatInt(seq, 10), job: job, tenant: tenant, window: window,
		due: due, done: make(chan struct{}), postRecorded: make(chan struct{})}
}

func (s *serveLoad) register(op *serveOp) {
	s.mu.Lock()
	s.pending[op.id] = op
	s.mu.Unlock()
}

// unregister reports whether op was still waiting for its event.
func (s *serveLoad) unregister(op *serveOp) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pending[op.id]
	delete(s.pending, op.id)
	return ok
}

// readEvents follows /v1/events until the stream closes, completing the
// op each done or failed event names.
func (s *serveLoad) readEvents() {
	defer close(s.sseDone)
	sc := bufio.NewScanner(s.events)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		if t, ok := strings.CutPrefix(line, "event: "); ok {
			typ = t
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (typ != "done" && typ != "failed") {
			continue
		}
		var ev struct {
			Job string `json:"job"`
		}
		if json.Unmarshal([]byte(data), &ev) != nil {
			continue
		}
		now := time.Now()
		s.mu.Lock()
		op := s.pending[ev.Job]
		delete(s.pending, ev.Job)
		s.mu.Unlock()
		if op == nil {
			continue
		}
		op.doneAt, op.eventFail = now, typ == "failed"
		close(op.done)
		if op.async {
			s.completed <- op
		}
	}
}

type jobRequest struct {
	ID       string `json:"id"`
	Source   string `json:"source"`
	WellPose bool   `json:"wellpose,omitempty"`
}

// post submits the op; on any answer but 202 the op has failed.
func (s *serveLoad) post(op *serveOp) {
	defer close(op.postRecorded)
	j := s.jobs[op.job]
	body, err := json.Marshal(jobRequest{ID: op.id, Source: j.text, WellPose: j.wellPose})
	if err != nil {
		op.failed = true
		return
	}
	req, err := http.NewRequest(http.MethodPost, s.d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		op.failed = true
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if op.tenant >= 0 {
		req.Header.Set("X-Tenant", "t"+strconv.Itoa(op.tenant))
	}
	s.register(op)
	op.issued = time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	op.posted = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		op.failed = true
		s.unregister(op)
	}
}

// get fetches the finished job and queues its body for the oracle.
func (s *serveLoad) get(op *serveOp) {
	op.getStart = time.Now()
	var body []byte
	resp, err := s.client.Get(s.d.base + "/v1/jobs/" + op.id)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	op.got = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK || op.eventFail {
		op.failed = true
		return
	}
	op.respBytes = len(body)
	s.verifyQ <- verifyItem{op, body}
}

// verifier checks every fetched offset table against the expectation
// computed at set-up. It runs beside the issuers, not on their clock.
func (s *serveLoad) verifier() {
	defer s.verifyWG.Done()
	for it := range s.verifyQ {
		t := time.Now()
		offsets, ok := doneOffsets(it.body)
		if ok {
			d, err := tableDigest(offsets)
			ok = err == nil && d == s.jobs[it.op.job].want
		}
		if !ok {
			it.op.failed = true
		}
		s.r.addVerify(time.Since(t), boolInt(!ok))
	}
}

// stopVerifier waits until every queued body has been checked.
func (s *serveLoad) stopVerifier() {
	s.closeQ.Do(func() { close(s.verifyQ) })
	s.verifyWG.Wait()
}

// doneOffsets returns the offset table of a GET /v1/jobs/{id} body
// whose status is done. encoding/json spends most of a check on the
// long offsets string, so a body in the daemon's usual indented shape
// is unquoted directly; any other goes through encoding/json.
func doneOffsets(body []byte) (string, bool) {
	const key = `"offsets": "`
	if i := bytes.Index(body, []byte(key)); i >= 0 && bytes.Contains(body[:i], []byte(`"status": "done"`)) {
		if offsets, ok := unquoteSimple(body[i+len(key):]); ok {
			return offsets, true
		}
	}
	var v struct {
		Status  string `json:"status"`
		Offsets string `json:"offsets"`
	}
	if json.Unmarshal(body, &v) != nil || v.Status != "done" {
		return "", false
	}
	return v.Offsets, true
}

// unquoteSimple decodes the JSON string that b starts inside, up to its
// closing quote, when it uses no escapes but \n, \", \\ and \/.
func unquoteSimple(b []byte) (string, bool) {
	out := make([]byte, 0, len(b))
	for {
		j := bytes.IndexAny(b, `"\`)
		if j < 0 {
			return "", false
		}
		out = append(out, b[:j]...)
		if b[j] == '"' {
			return string(out), true
		}
		if j+1 == len(b) {
			return "", false
		}
		switch c := b[j+1]; c {
		case 'n':
			out = append(out, '\n')
		case '"', '\\', '/':
			out = append(out, c)
		default:
			return "", false
		}
		b = b[j+2:]
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finish records a completed or failed op.
func (s *serveLoad) finish(op *serveOp) {
	s.mu.Lock()
	s.ops = append(s.ops, op)
	s.mu.Unlock()
}

// roundTrip runs one op start to finish on the calling goroutine.
func (s *serveLoad) roundTrip(op *serveOp) {
	s.post(op)
	if !op.failed {
		timer := time.NewTimer(30 * time.Second)
		select {
		case <-op.done:
		case <-timer.C:
			if s.unregister(op) {
				op.failed = true
			} else {
				<-op.done
			}
		}
		timer.Stop()
		if !op.failed {
			s.get(op)
		}
	}
	if op.got.IsZero() {
		op.got = time.Now()
	}
	s.finish(op)
}

func (s *serveLoad) windowOf(t time.Time) int {
	if t.Before(s.t0) {
		return -1
	}
	return int(t.Sub(s.t0) / s.r.window())
}

func (s *serveLoad) measure(ctx context.Context, r *run) error {
	p := r.p
	// Fill the daemon to its steady state before the timed load: submit
	// the corpus in order, cycling, until the result store holds as many
	// finished jobs as it keeps. The cache then holds serve-steady's
	// whole working set, and the heap its long-run size, so the windows
	// do not see it grow.
	var wg sync.WaitGroup
	var next atomic.Int64
	fill := int64(max(p.ServeFill, len(s.jobs)))
	for g := 0; g < p.Issuers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < fill && ctx.Err() == nil; i = next.Add(1) - 1 {
				s.roundTrip(s.newOp(time.Now(), -1, int(i)%len(s.jobs), -1))
			}
		}()
	}
	wg.Wait()
	s.t0 = time.Now().Add(r.warmup())
	end := s.t0.Add(time.Duration(p.Windows) * r.window())
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var load sync.WaitGroup
	if s.open {
		issuing := make(chan struct{})
		load.Add(2)
		go func() { defer load.Done(); defer close(issuing); s.issueOpen(loadCtx, end) }()
		go func() { defer load.Done(); s.complete(issuing) }()
	} else {
		for g := 0; g < p.Issuers; g++ {
			load.Add(1)
			go func() { defer load.Done(); s.issueClosed(loadCtx, end) }()
		}
	}

	// The daemon's counters are read before the first window, inside
	// the warm-up, and after the load has drained: a /metrics scrape
	// shares the request connection, so one inside a timed window would
	// add its render time to the ops queued behind it.
	var before, after scraped
	edges := make([]edge, p.Windows+1)
	err := sleepUntil(ctx, s.t0.Add(-r.warmup()/4))
	if err == nil {
		before, err = s.scrape()
	}
	pid := strconv.Itoa(s.d.cmd.Process.Pid)
	for w := range edges {
		if err != nil {
			break
		}
		if err = sleepUntil(ctx, s.t0.Add(time.Duration(w)*r.window())); err != nil {
			break
		}
		edges[w].t = time.Now()
		if edges[w].cpu, err = procCPU(pid); err == nil && w > 0 {
			edges[w].peakMB, err = peakRSSMB(pid)
		}
		if err == nil {
			err = resetPeakRSS(pid)
		}
	}
	if err != nil {
		stopLoad()
	}
	load.Wait()
	s.stopVerifier()
	if err != nil {
		return err
	}
	if after, err = s.scrape(); err != nil {
		return err
	}
	r.drops = int(after.m["relsched_serve_events_dropped_total"])
	for w := 0; w < p.Windows; w++ {
		r.wins = append(r.wins, windowRec{wall: edges[w+1].t.Sub(edges[w].t), cpu: edges[w+1].cpu - edges[w].cpu, peakMB: edges[w+1].peakMB})
	}
	s.record(before, after)
	return nil
}

// issueOpen posts jobs on the open loop's fixed schedule; the completer
// fetches them as their done events arrive.
func (s *serveLoad) issueOpen(ctx context.Context, end time.Time) {
	interval := time.Second / SteadyRate
	start := s.t0.Add(-s.r.warmup())
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) || sleepUntil(ctx, due) != nil {
			return
		}
		op := s.drawOp(due, s.windowOf(due))
		op.async = true
		s.inflight.Add(1)
		s.post(op)
		if op.failed {
			op.got = op.posted
			s.finish(op)
			s.inflight.Done()
		}
	}
}

// complete is the open loop's second goroutine: it fetches each job as
// its done event arrives until the schedule has ended and every op in
// flight has been fetched. Ops in flight when a window closes are
// drained and counted normally; one whose event never comes fails.
func (s *serveLoad) complete(issuing <-chan struct{}) {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-issuing
		idle := make(chan struct{})
		go func() { s.inflight.Wait(); close(idle) }()
		select {
		case <-idle:
			return
		case <-time.After(30 * time.Second):
		}
		s.mu.Lock()
		stuck := s.pending
		s.pending = map[string]*serveOp{}
		s.mu.Unlock()
		for _, op := range stuck {
			<-op.postRecorded
			if op.async && !op.failed {
				op.failed, op.got = true, time.Now()
				s.finish(op)
				s.inflight.Done()
			}
		}
		<-idle
	}()
	for {
		select {
		case op := <-s.completed:
			<-op.postRecorded
			if op.failed {
				continue // the issuer recorded it
			}
			s.get(op)
			s.finish(op)
			s.inflight.Done()
		case <-drained:
			return
		}
	}
}

// issueClosed is one closed-loop client: its next job is due when the
// previous one has been fetched.
func (s *serveLoad) issueClosed(ctx context.Context, end time.Time) {
	for due := time.Now(); ctx.Err() == nil && due.Before(end); due = time.Now() {
		s.roundTrip(s.drawOp(due, s.windowOf(due)))
	}
}

// edge is the daemon's CPU time at a window boundary, and its peak
// resident set over the window that ends there.
type edge struct {
	t      time.Time
	cpu    time.Duration
	peakMB float64
}

// scraped is the daemon's /metrics at one instant.
type scraped struct {
	t time.Time
	m map[string]float64
}

func (s *serveLoad) scrape() (scraped, error) {
	m, err := scrape(s.client, s.d.base)
	return scraped{t: time.Now(), m: m}, err
}

// record turns the ops and the /metrics deltas into measurements.
func (s *serveLoad) record(first, last scraped) {
	r := s.r
	open := s.open
	ops := make([]opRec, 0, len(s.ops))
	var post, wait, get, kb []float64
	var unattributed time.Duration
	measured := 0
	for _, op := range s.ops {
		if op.window < 0 {
			continue
		}
		measured++
		start := op.issued
		if open {
			start = op.due
		}
		ops = append(ops, opRec{window: op.window, lat: op.got.Sub(start), lag: op.issued.Sub(op.due), failed: op.failed})
		if op.failed || !r.traced(op.window) {
			continue
		}
		waitEnd := op.doneAt
		if waitEnd.Before(op.posted) {
			waitEnd = op.posted
		}
		children := []child{{"post", op.issued, op.posted}, {"wait", op.posted, waitEnd}, {"get", op.getStart, op.got}}
		if open {
			children = append(children, child{"lag", op.due, op.issued})
		}
		r.rec.op(op.seq, "op", start, op.got, children...)
		unattributed += op.got.Sub(start)
		for _, c := range children {
			unattributed -= c.end.Sub(c.start)
		}
		post = append(post, ms(op.posted.Sub(op.issued)))
		wait = append(wait, ms(waitEnd.Sub(op.posted)))
		get = append(get, ms(op.got.Sub(op.getStart)))
		kb = append(kb, float64(op.respBytes)/1024)
		if r.sampled(op.window, op.seq) {
			j := s.jobs[op.job]
			r.addShadow(shadowSample{op: op.seq, text: func() (string, error) { return j.text, nil }, wellPose: j.wellPose})
		}
	}
	r.addOps(ops)

	for name, xs := range map[string][]float64{"serve.post_ms": post, "serve.wait_ms": wait, "serve.get_ms": get} {
		r.layerDist(name+".p50", "ms", xs, 50)
		r.layerDist(name+".p99", "ms", xs, 99)
	}
	if len(kb) > 0 {
		var sum float64
		for _, x := range kb {
			sum += x
		}
		r.layer("serve.response_kb_per_op", "KB", sum/float64(len(kb)), len(kb))
		r.layer("serve.unattributed_ms.mean", "ms", ms(unattributed)/float64(len(kb)), len(kb))
	}

	// The scrapes bracket the windows and a little warm-up, so per-job
	// ratios divide by the daemon's own job count over the same span.
	d := func(name string) float64 { return last.m[name] - first.m[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const ns = "relsched_"
	jobs := d(ns + "serve_jobs_accepted_total")
	lookups := d(ns + "engine_cache_lookups_total")
	r.layer("serve.job_latency_ms.mean", "ms", 1e3*ratio(d(ns+"serve_job_latency_sum"), d(ns+"serve_job_latency_count")), int(d(ns+"serve_job_latency_count")))
	r.layer("engine.cache.hit_ratio", "share", ratio(d(ns+"engine_cache_hits_total"), lookups), int(lookups))
	r.layer("engine.cache.evictions_per_op", "count", ratio(d(ns+"engine_cache_evictions_total"), jobs), int(jobs))
	r.layer("engine.cache.suppressed_share", "share", ratio(d(ns+"engine_cache_duplicate_suppressed_total"), lookups), int(lookups))
	r.layer("engine.computes_per_op", "count", ratio(d(ns+"engine_computes_total"), jobs), int(jobs))
	r.layer("engine.busy_share", "share", ratio(d(ns+"engine_job_duration_sum"), last.t.Sub(first.t).Seconds()*last.m[ns+"serve_workers"]), int(jobs))
	r.layer("runtime.gc_per_kop", "count", ratio(d(ns+"runtime_gc_cycles"), jobs/1000), int(jobs))
	for _, st := range []string{"fingerprint", "cache", "wellpose", "analyze", "schedule"} {
		if c := d(ns + "engine_stage_" + st + "_count"); c > 0 {
			r.layer("engine.stage."+st+"_us.mean", "us", 1e6*d(ns+"engine_stage_"+st+"_sum")/c, int(c))
		}
	}
}

func (s *serveLoad) close() error {
	var err error
	if s.verifyQ != nil {
		s.stopVerifier()
	}
	if s.events != nil {
		s.events.Close()
		<-s.sseDone
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.d != nil {
		err = s.d.stop()
	}
	return err
}

// daemon is one `relsched serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *tail
	exited chan struct{}
	err    error // cmd.Wait's result once exited is closed
}

// startDaemon starts relsched serve with its default flags on a free
// loopback port and returns once /readyz answers 200, with the time
// from exec to that answer.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, log: &tail{}, exited: make(chan struct{})}
	cmd.Stderr = d.log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(d.log, sc.Text())
			for _, f := range strings.Fields(sc.Text()) {
				if strings.HasPrefix(f, "http://") {
					select {
					case addr <- f:
					default:
					}
				}
			}
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("relsched serve exited before listening (%v): %s", d.err, d.log)
	case <-deadline.C:
		d.kill()
		return nil, 0, errors.New("relsched serve printed no address within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-deadline.C:
			d.kill()
			return nil, 0, errors.New("relsched serve not ready within 30s")
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM, as an orchestrator would, and
// reports a drain that failed or hung.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("relsched serve did not drain within 30s: %s", d.log)
	}
	if d.err != nil {
		return fmt.Errorf("relsched serve: %v: %s", d.err, d.log)
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// tail keeps the last few KiB of the daemon's output for error messages.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// scrape reads the unlabeled series of the daemon's /metrics.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, sc.Err()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// procCPU is a process's user plus system CPU time, all threads.
func procCPU(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
