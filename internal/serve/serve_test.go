package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/leakcheck"
)

// simpleCG is a well-posed four-vertex graph in the cgio text format,
// cheap to schedule; distinct graphs for cache tests append vertices.
const simpleCG = `graph t
vertex a delay=1
vertex b delay=2
vertex sink delay=0
seq v0 a
seq a b
seq b sink
min a b 1
`

// testServer builds an engine + Server pair for white-box tests. mutate
// tweaks the serve options (the Engine field is overwritten).
func testServer(t *testing.T, engWorkers int, mutate func(*Options)) *Server {
	t.Helper()
	// Registered before the drain cleanup below, so it verifies (LIFO)
	// after the drain: a Server must not leave worker, poll, or SSE
	// goroutines running once Drain returns.
	leakcheck.Check(t)
	opts := Options{Workers: engWorkers}
	if mutate != nil {
		mutate(&opts)
	}
	opts.Engine = engine.New(engine.Options{Workers: engWorkers})
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

// jobsResponse mirrors the 202 body of POST /v1/jobs.
type jobsResponse struct {
	Jobs []JobView `json:"jobs"`
}

// postJobs POSTs body to /v1/jobs and returns the response. The caller
// closes the body.
func postJobs(t *testing.T, ts *httptest.Server, tenant, contentType, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJobs(t *testing.T, resp *http.Response) []JobView {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs = %d, want 202; body: %s", resp.StatusCode, b)
	}
	var jr jobsResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr.Jobs
}

func getStatusCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// singleJob renders one JobRequest body.
func singleJob(id string) string {
	b, _ := json.Marshal(JobRequest{ID: id, Source: simpleCG})
	return string(b)
}

// batchJobs renders a JSON array of n jobs with server-assigned IDs.
func batchJobs(n int) string {
	reqs := make([]JobRequest, n)
	for i := range reqs {
		reqs[i] = JobRequest{Source: simpleCG}
	}
	b, _ := json.Marshal(reqs)
	return string(b)
}

// waitFor polls cond until true or the deadline; fails the test on
// timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDrainExactlyOnce pins the package's core promise: N accepted jobs
// (202) resolve to exactly N terminal results across a drain that starts
// while they are queued and in-flight — none lost, none duplicated —
// and /readyz flips 503 the moment the drain begins.
func TestDrainExactlyOnce(t *testing.T) {
	const n = 6
	s := testServer(t, 2, func(o *Options) { o.QueueDepth = 16 })
	gate := make(chan struct{})
	s.testJobGate = gate // every job blocks at start until the gate opens
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if got := getStatusCode(t, ts, "/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}

	views := decodeJobs(t, postJobs(t, ts, "", "application/json", batchJobs(n)))
	if len(views) != n {
		t.Fatalf("accepted %d jobs, want %d", len(views), n)
	}
	ids := make(map[string]bool, n)
	for _, v := range views {
		if v.Status != StatusQueued {
			t.Errorf("job %s accepted with status %q, want queued", v.ID, v.Status)
		}
		if ids[v.ID] {
			t.Fatalf("duplicate job ID %q in accept response", v.ID)
		}
		ids[v.ID] = true
	}

	// Both workers have claimed a job and sit blocked at the gate; the
	// other four wait in the queue. Start the drain mid-flight.
	waitFor(t, "workers to claim jobs", func() bool { d, _ := s.QueueDepth(); return d == n-2 })
	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", func() bool { return !s.Ready() })

	if got := getStatusCode(t, ts, "/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", got)
	}
	if resp := postJobs(t, ts, "", "application/json", batchJobs(1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST during drain = %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	select {
	case err := <-drainErr:
		t.Fatalf("drain completed with jobs still gated (err=%v)", err)
	default:
	}

	close(gate) // release every in-flight and queued job
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-s.Drained():
	default:
		t.Error("Drained() not closed after Drain returned")
	}

	// Exactly one terminal result per accepted ID.
	st := s.Status()
	if st.JobsDone != n || st.JobsFailed != 0 || st.JobsQueued != 0 || st.JobsRunning != 0 {
		t.Fatalf("post-drain status = %+v, want %d done and nothing else", st, n)
	}
	for id := range ids {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || v.Status != StatusDone {
			t.Errorf("job %s after drain: HTTP %d status %q, want 200 done", id, resp.StatusCode, v.Status)
		}
	}
	reg := s.eng.Metrics()
	if acc := reg.Counter(MetricJobsAccepted).Value(); acc != n {
		t.Errorf("%s = %d, want %d", MetricJobsAccepted, acc, n)
	}
	if shed := reg.Counter(engine.MetricJobsShed).Value(); shed != 0 {
		t.Errorf("%s = %d, want 0 (503s are not sheds)", engine.MetricJobsShed, shed)
	}

	// Drain is idempotent: a second call observes the same completion.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestLoadShedQueueFull pins the 429 backpressure path and the shed
// counter conservation laws:
//
//	requested = accepted + shed
//	shed      = queue_full + rate_limited + quota
func TestLoadShedQueueFull(t *testing.T) {
	s := testServer(t, 1, func(o *Options) { o.QueueDepth = 2 })
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job 1 is claimed by the lone worker and blocks at the gate.
	decodeJobs(t, postJobs(t, ts, "", "application/json", batchJobs(1)))
	waitFor(t, "worker to claim the job", func() bool { d, _ := s.QueueDepth(); return d == 0 })

	// A 3-job batch cannot fit the 2-slot queue: shed atomically.
	resp := postJobs(t, ts, "", "application/json", batchJobs(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if eb.Reason != "queue_full" {
		t.Errorf("shed reason = %q, want queue_full", eb.Reason)
	}

	// Two jobs fill the queue exactly; one more sheds.
	decodeJobs(t, postJobs(t, ts, "", "application/json", batchJobs(2)))
	resp = postJobs(t, ts, "", "application/json", batchJobs(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST to a full queue = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	reg := s.eng.Metrics()
	requested := reg.Counter(MetricJobsRequested).Value()
	accepted := reg.Counter(MetricJobsAccepted).Value()
	shed := reg.Counter(engine.MetricJobsShed).Value()
	queueFull := reg.Counter(MetricShedQueueFull).Value()
	rate := reg.Counter(MetricShedRateLimited).Value()
	quota := reg.Counter(MetricShedQuota).Value()
	if requested != accepted+shed {
		t.Errorf("conservation broken: requested=%d accepted=%d shed=%d", requested, accepted, shed)
	}
	if shed != queueFull+rate+quota {
		t.Errorf("shed reasons don't sum: shed=%d queue_full=%d rate=%d quota=%d", shed, queueFull, rate, quota)
	}
	if accepted != 3 || shed != 4 || queueFull != 4 {
		t.Errorf("accepted=%d shed=%d queue_full=%d, want 3/4/4", accepted, shed, queueFull)
	}

	// Every accepted job still resolves: backpressure loses requests,
	// never accepted work.
	close(gate)
	waitFor(t, "accepted jobs to finish", func() bool { return s.Status().JobsDone == 3 })
}

// TestTenantRateAndQuotaSheds drives the tenant gates through HTTP with
// a fake clock: rate refusals and quota refusals produce 429s with the
// machine-readable reason and land in their own shed counters.
func TestTenantRateAndQuotaSheds(t *testing.T) {
	// The clock is read by handler goroutines and advanced by the test:
	// guard it.
	var clockMu sync.Mutex
	clock := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	s := testServer(t, 1, func(o *Options) {
		o.RatePerTenant = 1
		o.Burst = 2
		o.TenantQuota = 3
		o.QueueDepth = 16
		o.Now = func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return clock
		}
	})
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Burst of 2 admits; the third job in the same instant is rate-shed.
	decodeJobs(t, postJobs(t, ts, "alice", "application/json", batchJobs(2)))
	resp := postJobs(t, ts, "alice", "application/json", batchJobs(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst POST = %d, want 429", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if eb.Reason != "rate" {
		t.Errorf("reason = %q, want rate", eb.Reason)
	}

	// Tenants are independent: bob's bucket is untouched by alice's.
	decodeJobs(t, postJobs(t, ts, "bob", "application/json", batchJobs(1)))

	// One refilled token admits one more alice job; her fourth active job
	// then trips the quota (3 queued+running), not the rate.
	advance(2 * time.Second)
	decodeJobs(t, postJobs(t, ts, "alice", "application/json", batchJobs(1)))
	advance(2 * time.Second)
	resp = postJobs(t, ts, "alice", "application/json", batchJobs(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST = %d, want 429", resp.StatusCode)
	}
	eb = errorBody{}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if eb.Reason != "quota" {
		t.Errorf("reason = %q, want quota", eb.Reason)
	}

	reg := s.eng.Metrics()
	if r := reg.Counter(MetricShedRateLimited).Value(); r != 1 {
		t.Errorf("rate sheds = %d, want 1", r)
	}
	if q := reg.Counter(MetricShedQuota).Value(); q != 1 {
		t.Errorf("quota sheds = %d, want 1", q)
	}
	requested := reg.Counter(MetricJobsRequested).Value()
	accepted := reg.Counter(MetricJobsAccepted).Value()
	shed := reg.Counter(engine.MetricJobsShed).Value()
	if requested != accepted+shed {
		t.Errorf("conservation broken: requested=%d accepted=%d shed=%d", requested, accepted, shed)
	}

	close(gate)
	waitFor(t, "jobs to finish", func() bool { return s.Status().JobsDone == 4 })
}

// TestJSONLIntake submits a batch as JSONL with blank and comment lines,
// the same conventions as `relsched batch -manifest`.
func TestJSONLIntake(t *testing.T) {
	s := testServer(t, 2, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src, _ := json.Marshal(simpleCG)
	body := fmt.Sprintf("# a comment\n\n{\"id\":\"l1\",\"source\":%s}\n{\"id\":\"l2\",\"source\":%s}\n", src, src)
	views := decodeJobs(t, postJobs(t, ts, "", "application/x-ndjson", body))
	if len(views) != 2 || views[0].ID != "l1" || views[1].ID != "l2" {
		t.Fatalf("JSONL batch = %+v, want jobs l1, l2", views)
	}
	waitFor(t, "JSONL jobs to finish", func() bool { return s.Status().JobsDone == 2 })
}

// TestJobLifecycle follows one job from 202 to a scheduled offset table
// and exercises the GET mode selector.
func TestJobLifecycle(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	views := decodeJobs(t, postJobs(t, ts, "", "application/json", singleJob("gcd")))
	if len(views) != 1 || views[0].ID != "gcd" {
		t.Fatalf("accept = %+v, want one job gcd", views)
	}

	var v JobView
	waitFor(t, "job gcd to finish", func() bool {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/gcd")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/gcd = %d", resp.StatusCode)
		}
		v = JobView{}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.Status == StatusDone
	})
	if v.Offsets == "" || v.Anchors == 0 || v.Iterations == 0 {
		t.Errorf("terminal view missing schedule data: %+v", v)
	}

	for _, mode := range []string{"full", "relevant", "irredundant"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/gcd?mode=" + mode)
		if err != nil {
			t.Fatal(err)
		}
		var mv JobView
		if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if mv.Offsets == "" {
			t.Errorf("mode %s: empty offset table", mode)
		}
	}
	if got := getStatusCode(t, ts, "/v1/jobs/gcd?mode=bogus"); got != http.StatusBadRequest {
		t.Errorf("bogus mode = %d, want 400", got)
	}
	if got := getStatusCode(t, ts, "/v1/jobs/never-submitted"); got != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", got)
	}
}

// TestIntakeRefusals covers the client-error statuses: malformed JSON,
// missing/unparseable source, duplicate ID, oversized body, wrong
// method. None of them count as sheds.
func TestIntakeRefusals(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp := postJobs(t, ts, "", "application/json", body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{not json`); got != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", got)
	}
	if got := post(`{"id":"x"}`); got != http.StatusBadRequest {
		t.Errorf("missing source = %d, want 400", got)
	}
	if got := post(`{"source":"graph g\nedge oops"}`); got != http.StatusBadRequest {
		t.Errorf("unparseable source = %d, want 400", got)
	}
	if got := post(`[]`); got != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", got)
	}
	// A timeout_ms whose duration overflows int64 nanoseconds would wrap
	// to a deadline of a few nanoseconds or microseconds.
	for _, ms := range []int64{76480200929599801, 18446744073710, maxTimeoutMS + 1} {
		body, _ := json.Marshal(JobRequest{Source: simpleCG, TimeoutMS: ms})
		if got := post(string(body)); got != http.StatusBadRequest {
			t.Errorf("timeout_ms %d = %d, want 400", ms, got)
		}
	}
	if got := post(singleJob("dup")); got != http.StatusAccepted {
		t.Fatalf("first dup = %d, want 202", got)
	}
	if got := post(singleJob("dup")); got != http.StatusConflict {
		t.Errorf("second dup = %d, want 409", got)
	}
	big := strings.Repeat("x", maxRequestBody+1)
	if got := post(big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
	if shed := s.eng.Metrics().Counter(engine.MetricJobsShed).Value(); shed != 0 {
		t.Errorf("client errors counted as sheds: %d", shed)
	}
}

// TestAdminConfigReload hot-swaps workers, cache capacity, and tenant
// policy through POST /v1/admin/config and reads the result back.
func TestAdminConfigReload(t *testing.T) {
	s := testServer(t, 2, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postConfig := func(body string) (*http.Response, StatusView) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/admin/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sv StatusView
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, sv
	}

	resp, sv := postConfig(`{"workers": 5, "cache_capacity": 7, "rate_per_tenant": 2.5, "burst": 4, "tenant_quota": 9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config POST = %d, want 200", resp.StatusCode)
	}
	if sv.Workers != 5 || sv.CacheCapacity != 7 || sv.RatePerTenant != 2.5 || sv.Burst != 4 || sv.TenantQuota != 9 {
		t.Errorf("reloaded status = %+v, want workers=5 cache=7 rate=2.5 burst=4 quota=9", sv)
	}
	if s.Workers() != 5 {
		t.Errorf("Workers() = %d after reload, want 5", s.Workers())
	}

	// Shrink back down; the pool settles without abandoning anything.
	if _, sv = postConfig(`{"workers": 1}`); sv.Workers != 1 {
		t.Errorf("shrink: workers = %d, want 1", sv.Workers)
	}
	waitFor(t, "pool to shrink", func() bool { return s.Workers() == 1 })

	if resp, _ = postConfig(`{"workers": 0}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("workers=0 = %d, want 400", resp.StatusCode)
	}
	if resp, _ = postConfig(`{"wrokers": 2}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", resp.StatusCode)
	}

	// GET returns the same snapshot shape.
	resp, err := ts.Client().Get(ts.URL + "/v1/admin/config")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET config = %d, want 200", resp.StatusCode)
	}

	// Config freezes once drain starts.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ = postConfig(`{"workers": 3}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("config during drain = %d, want 503", resp.StatusCode)
	}
}

// TestResultEviction pins the bounded result store: oldest finished
// results give way, queued and running jobs are never evicted.
func TestResultEviction(t *testing.T) {
	s := testServer(t, 1, func(o *Options) { o.ResultCapacity = 2; o.QueueDepth = 16 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("e%d", i)
		decodeJobs(t, postJobs(t, ts, "", "application/json", singleJob(id)))
		waitFor(t, id+" to finish", func() bool {
			rec, ok := s.job(id)
			if !ok {
				t.Fatalf("job %s vanished before finishing", id)
			}
			s.storeMu.Lock()
			st := rec.status
			s.storeMu.Unlock()
			return st == StatusDone
		})
	}
	if got := getStatusCode(t, ts, "/v1/jobs/e0"); got != http.StatusNotFound {
		t.Errorf("evicted job e0 = %d, want 404", got)
	}
	if got := getStatusCode(t, ts, "/v1/jobs/e3"); got != http.StatusOK {
		t.Errorf("retained job e3 = %d, want 200", got)
	}
}

// TestServerAssignedIDsSkipTaken: a client-claimed "j-1" must not
// collide with the server's own sequence.
func TestServerAssignedIDsSkipTaken(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	decodeJobs(t, postJobs(t, ts, "", "application/json", singleJob("j-1")))
	views := decodeJobs(t, postJobs(t, ts, "", "application/json", batchJobs(1)))
	if views[0].ID == "j-1" || views[0].ID == "" {
		t.Errorf("server-assigned ID %q collides with the client's", views[0].ID)
	}
	waitFor(t, "both jobs to finish", func() bool { return s.Status().JobsDone == 2 })
}

// TestDrainDeadline: a drain whose context expires while a job is still
// in flight reports ctx.Err() — the CLI's cue to exit nonzero — and the
// job still completes afterwards (accepted work is never abandoned).
func TestDrainDeadline(t *testing.T) {
	s := testServer(t, 1, nil)
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	decodeJobs(t, postJobs(t, ts, "", "application/json", batchJobs(1)))
	waitFor(t, "worker to claim the job", func() bool { d, _ := s.QueueDepth(); return d == 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain with a gated job = %v, want context.DeadlineExceeded", err)
	}

	// The expired deadline abandoned the wait, not the work.
	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if st := s.Status(); st.JobsDone != 1 {
		t.Errorf("post-drain status = %+v, want 1 done", st)
	}
}

// TestFinishedJobHoldsNoGraph pins that a finished job's record keeps its
// result, not the graph it was submitted with: the worker drops the
// record's graph when it hands the job to the engine. A second job with
// the same source is a cache hit, and its result shares the cached
// entry's graph, so its own parse is garbage.
func TestFinishedJobHoldsNoGraph(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range []string{"first", "again"} {
		decodeJobs(t, postJobs(t, ts, "", "application/json", singleJob(id)))
		waitFor(t, "job "+id+" to finish", func() bool {
			s.storeMu.Lock()
			defer s.storeMu.Unlock()
			return s.store[id].status == StatusDone
		})
	}
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	first, again := s.store["first"], s.store["again"]
	for _, rec := range []*jobRecord{first, again} {
		if rec.graph != nil {
			t.Errorf("finished job %s still holds its submitted graph", rec.id)
		}
	}
	if !again.result.CacheHit || again.result.Graph != first.result.Graph {
		t.Errorf("repeat job: cache hit %v, shares the cached graph %v; want both",
			again.result.CacheHit, again.result.Graph == first.result.Graph)
	}
}
