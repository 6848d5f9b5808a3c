package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/cgio/cgiotest"
	"repro/internal/relsched"
)

// patchJob PATCHes body to /v1/jobs/{id}+query and returns the response.
// The caller closes the body.
func patchJob(t *testing.T, ts *httptest.Server, id, query, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/jobs/"+id+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeView decodes one JobView, failing unless the status matches.
func decodeView(t *testing.T, resp *http.Response, want int) JobView {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, want, b)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// decodeErr decodes an errorBody, failing unless the status matches.
func decodeErr(t *testing.T, resp *http.Response, want int) errorBody {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, want, b)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return e
}

// getJob GETs /v1/jobs/{id} and decodes the JobView.
func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return decodeView(t, resp, http.StatusOK)
}

// submitAndWait posts one job and polls until it is done.
func submitAndWait(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	decodeJobs(t, postJobs(t, ts, "", "application/json", singleJob(id)))
	var v JobView
	waitFor(t, "job "+id+" done", func() bool {
		v = getJob(t, ts, id)
		return v.Status == StatusDone
	})
	return v
}

// TestJobPatchLifecycle drives the documented happy path end to end:
// tighten with add_min (offsets move), splice a bounded operation with
// insert_op (offsets move again), then remove both min constraints over
// two PATCHes — offsets land back where seq edges alone put them, and
// the patches counter in the JobView tracks every applied edit.
func TestJobPatchLifecycle(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := submitAndWait(t, ts, "edit-me")
	if base.Offsets == "" || base.Patches != 0 {
		t.Fatalf("baseline view: offsets=%q patches=%d", base.Offsets, base.Patches)
	}

	// σ(b) is 1 from seq a→b (δ(a)=1); min a b 5 raises it to 5.
	v := decodeView(t, patchJob(t, ts, "edit-me", "",
		`{"edits":[{"op":"add_min","from":"a","to":"b","weight":5}]}`), http.StatusOK)
	if v.Patches != 1 {
		t.Errorf("patches after add_min = %d, want 1", v.Patches)
	}
	if v.Offsets == base.Offsets {
		t.Error("add_min a b 5 left the offset table unchanged")
	}
	tightened := v.Offsets

	// A GET must observe the patched schedule, not the original.
	if got := getJob(t, ts, "edit-me"); got.Offsets != tightened || got.Patches != 1 {
		t.Errorf("GET after patch: offsets match=%v patches=%d", got.Offsets == tightened, got.Patches)
	}

	// Bounded insert_op is a legal edit (no new anchor).
	v = decodeView(t, patchJob(t, ts, "edit-me", "",
		`{"edits":[{"op":"insert_op","name":"x","delay":2,"pred":"a","succ":"sink"}]}`), http.StatusOK)
	if v.Patches != 2 {
		t.Errorf("patches after insert_op = %d, want 2", v.Patches)
	}
	if !strings.Contains(v.Offsets, "x") {
		t.Errorf("offset table after insert_op is missing the new vertex:\n%s", v.Offsets)
	}

	// Remove both a→b minimum constraints (the seed's min a b 1, then the
	// patched min a b 5) in separate PATCHes — each resolves against the
	// current graph. With only seq a→b left, σ(b) falls back to δ(a) = 1,
	// exactly the baseline value.
	decodeView(t, patchJob(t, ts, "edit-me", "",
		`{"edits":[{"op":"remove_min","from":"a","to":"b"}]}`), http.StatusOK).check(t, 3)
	v = decodeView(t, patchJob(t, ts, "edit-me", "",
		`{"edits":[{"op":"remove_min","from":"a","to":"b"}]}`), http.StatusOK)
	if v.Patches != 4 {
		t.Errorf("patches after removals = %d, want 4", v.Patches)
	}
	for _, name := range []string{"a ", "b ", "sink"} {
		if !strings.Contains(v.Offsets, name) {
			t.Errorf("final offsets missing %q:\n%s", name, v.Offsets)
		}
	}

	if got := s.eng.Metrics().Snapshot().Counters[MetricJobsPatched]; got != 4 {
		t.Errorf("%s = %d, want 4", MetricJobsPatched, got)
	}
}

// check asserts the view's patch count inline.
func (v JobView) check(t *testing.T, patches int) {
	t.Helper()
	if v.Patches != patches {
		t.Errorf("patches = %d, want %d", v.Patches, patches)
	}
}

// TestJobPatchRejections pins every refusal path: semantic 422s leave
// the job untouched, resolution errors are 400s, and the mode query is
// validated before any work.
func TestJobPatchRejections(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitAndWait(t, ts, "probe")
	before := getJob(t, ts, "probe")

	// seq a→b forces σ(b) ≥ σ(a)+1; max a b 0 demands σ(b) ≤ σ(a).
	e := decodeErr(t, patchJob(t, ts, "probe", "",
		`{"edits":[{"op":"add_max","from":"a","to":"b","weight":0}]}`), http.StatusUnprocessableEntity)
	if e.Reason != "unfeasible" {
		t.Errorf("unfeasible max: reason = %q, want unfeasible", e.Reason)
	}

	// An unbounded insert would mint a new anchor — typed refusal, not a
	// 500 (the regression this endpoint's error mapping exists to pin).
	e = decodeErr(t, patchJob(t, ts, "probe", "",
		`{"edits":[{"op":"insert_op","name":"u","unbounded":true,"pred":"a","succ":"b"}]}`), http.StatusUnprocessableEntity)
	if e.Reason != "anchor_drift" {
		t.Errorf("unbounded insert: reason = %q, want anchor_drift", e.Reason)
	}

	// Removing a sequencing edge's sibling that does not exist, unknown
	// vertices, unknown ops, malformed bodies: client errors.
	for name, body := range map[string]string{
		"unknown op":     `{"edits":[{"op":"tighten","from":"a","to":"b"}]}`,
		"unknown vertex": `{"edits":[{"op":"add_min","from":"a","to":"nope","weight":1}]}`,
		"no such max":    `{"edits":[{"op":"remove_max","from":"a","to":"b"}]}`,
		"negative min":   `{"edits":[{"op":"add_min","from":"a","to":"b","weight":-2}]}`,
		"empty edits":    `{"edits":[]}`,
		"bad json":       `{"edits":`,
		"unknown field":  `{"edits":[{"op":"add_min","from":"a","to":"b","bound":3}]}`,
	} {
		if resp := patchJob(t, ts, "probe", "", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
			resp.Body.Close()
		} else {
			resp.Body.Close()
		}
	}

	if resp := patchJob(t, ts, "probe", "?mode=bogus", `{"edits":[{"op":"add_min","from":"a","to":"b","weight":2}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status = %d, want 400", resp.StatusCode)
		resp.Body.Close()
	} else {
		resp.Body.Close()
	}

	if resp := patchJob(t, ts, "no-such-job", "", `{"edits":[{"op":"add_min","from":"a","to":"b","weight":2}]}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
		resp.Body.Close()
	} else {
		resp.Body.Close()
	}

	// Every refusal above left the job byte-identical.
	after := getJob(t, ts, "probe")
	if after.Offsets != before.Offsets || after.Patches != 0 {
		t.Errorf("rejected patches changed the job: patches=%d, offsets drifted=%v",
			after.Patches, after.Offsets != before.Offsets)
	}
}

// TestJobPatchNotDone holds a job at the worker gate and confirms PATCH
// answers 409 until the job completes.
func TestJobPatchNotDone(t *testing.T) {
	s := testServer(t, 1, nil)
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	decodeJobs(t, postJobs(t, ts, "", "application/json", singleJob("held")))
	// The worker is parked at the gate, so the job is not done yet.
	if got := getJob(t, ts, "held").Status; got == StatusDone {
		t.Fatal("gated job reported done")
	}
	if resp := patchJob(t, ts, "held", "", `{"edits":[{"op":"add_min","from":"a","to":"b","weight":2}]}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("PATCH on unfinished job = %d, want 409", resp.StatusCode)
		resp.Body.Close()
	} else {
		resp.Body.Close()
	}
	close(gate)
	waitFor(t, "job done", func() bool { return getJob(t, ts, "held").Status == StatusDone })
	decodeView(t, patchJob(t, ts, "held", "",
		`{"edits":[{"op":"add_min","from":"a","to":"b","weight":2}]}`), http.StatusOK)
}

// TestJobPatchDraining confirms edits are refused once drain starts, and
// that method dispatch still advertises PATCH.
func TestJobPatchDraining(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitAndWait(t, ts, "late")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/late", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, PATCH" {
		t.Errorf("DELETE = %d Allow=%q, want 405 with \"GET, PATCH\"", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp.Body.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp := patchJob(t, ts, "late", "", `{"edits":[{"op":"add_min","from":"a","to":"b","weight":2}]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("PATCH while draining = %d, want 503", resp.StatusCode)
		resp.Body.Close()
	} else {
		resp.Body.Close()
	}
	// GET still serves results during and after drain.
	if v := getJob(t, ts, "late"); v.Status != StatusDone {
		t.Errorf("GET after drain: status %q, want done", v.Status)
	}
}

// TestJobPatchSharedCacheIsolation pins the fork-on-first-patch rule:
// two jobs with identical sources share one engine cache entry, and
// patching one must not leak edits into the other.
func TestJobPatchSharedCacheIsolation(t *testing.T) {
	s := testServer(t, 1, func(o *Options) { _ = o })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitAndWait(t, ts, "left")
	right := submitAndWait(t, ts, "right")
	if !right.CacheHit {
		t.Fatal("identical second job was not a cache hit; isolation test needs a shared entry")
	}

	decodeView(t, patchJob(t, ts, "left", "",
		`{"edits":[{"op":"add_min","from":"a","to":"b","weight":7}]}`), http.StatusOK)

	after := getJob(t, ts, "right")
	if after.Offsets != right.Offsets || after.Patches != 0 {
		t.Error("patching job \"left\" mutated the cache-shared job \"right\"")
	}
	// And a third submission of the same source still gets clean offsets.
	third := submitAndWait(t, ts, "third")
	if third.Offsets != right.Offsets {
		t.Error("patched fork leaked into the engine cache entry")
	}
}

// subscribeEvents opens /v1/events and returns the channel of parsed
// frames once the stream is open; it closes when the server drains.
func subscribeEvents(t *testing.T, ts *httptest.Server) <-chan sseEvent {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events = %d", resp.StatusCode)
	}
	ready := make(chan struct{})
	out := make(chan sseEvent, 64)
	go readSSE(resp, ready, out)
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream never opened")
	}
	return out
}

// drainEvents drains the server and counts the patched events the stream
// carried for job id.
func drainEvents(t *testing.T, s *Server, out <-chan sseEvent, id string) (patched, edits int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for se := range out {
		if se.ev.Type == EventPatched && se.ev.Job == id {
			patched++
			edits += se.ev.Edits
		}
	}
	return patched, edits
}

// TestJobPatchInsertOpOneEvent pins one PATCH to exactly one patched
// event: splicing in an operation with insert_op publishes a single
// patched event on /v1/events, and the offsets the job then reports, in
// every mode, are ReferenceCompute's for the job's graph rebuilt with the
// same edit.
func TestJobPatchInsertOpOneEvent(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitAndWait(t, ts, "ins")
	out := subscribeEvents(t, ts)

	v := decodeView(t, patchJob(t, ts, "ins", "",
		`{"edits":[{"op":"insert_op","name":"x","delay":2,"pred":"a","succ":"b"}]}`), http.StatusOK)
	if v.Patches != 1 {
		t.Errorf("patches = %d, want 1", v.Patches)
	}

	g, err := cgio.ParseString(simpleCG)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ApplyEdit(cg.InsertOpEdit("x", cg.Cycles(2), g.VertexByName("a"), g.VertexByName("b"))); err != nil {
		t.Fatal(err)
	}
	ref, err := relsched.ReferenceCompute(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []relsched.AnchorMode{relsched.FullAnchors, relsched.RelevantAnchors, relsched.IrredundantAnchors} {
		var want bytes.Buffer
		if err := cgio.WriteOffsets(&want, ref, mode); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/ins?mode=" + mode.String())
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeView(t, resp, http.StatusOK); got.Offsets != want.String() {
			t.Errorf("mode %v: offsets after insert_op\n%s\nReferenceCompute of the rebuilt graph\n%s", mode, got.Offsets, want.String())
		}
	}

	if patched, edits := drainEvents(t, s, out, "ins"); patched != 1 || edits != 1 {
		t.Errorf("one insert_op PATCH yielded %d patched events carrying %d edits, want exactly 1 and 1", patched, edits)
	}
}

// TestJobPatchRefusedWhole: a two-edit PATCH whose second edit fails is
// refused as a whole. The insert_op that comes first makes σ(b) ≥ σ(a)+3,
// so add_max a b 2 closes a positive cycle; the job keeps no trace of the
// insert — no new vertex in its table, no patched event, patches still 0.
func TestJobPatchRefusedWhole(t *testing.T) {
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := submitAndWait(t, ts, "whole")
	out := subscribeEvents(t, ts)

	e := decodeErr(t, patchJob(t, ts, "whole", "", `{"edits":[
		{"op":"insert_op","name":"x","delay":2,"pred":"a","succ":"b"},
		{"op":"add_max","from":"a","to":"b","weight":2}]}`), http.StatusUnprocessableEntity)
	if e.Reason != "unfeasible" {
		t.Errorf("reason = %q, want unfeasible", e.Reason)
	}
	after := getJob(t, ts, "whole")
	if after.Patches != 0 || after.Offsets != before.Offsets {
		t.Errorf("refused PATCH changed the job: patches=%d, offsets\n%s\nwant\n%s", after.Patches, after.Offsets, before.Offsets)
	}
	for _, row := range strings.Split(after.Offsets, "\n") {
		if f := strings.Fields(row); len(f) > 0 && f[0] == "x" {
			t.Errorf("the refused insert's vertex is in the offset table:\n%s", after.Offsets)
		}
	}

	if patched, _ := drainEvents(t, s, out, "whole"); patched != 0 {
		t.Errorf("refused PATCH published %d patched events, want 0", patched)
	}
}

// TestJobBodiesMatchReferenceTable pins the bytes a client receives now
// that GET and PATCH render the offset table on each request: in every
// mode, the body equals writeJSON of the job's view holding the tabwriter
// oracle's table for the job's current schedule, a repeated GET returns
// the same bytes, and so does a PATCH response for the edited schedule.
func TestJobBodiesMatchReferenceTable(t *testing.T) {
	src, err := os.ReadFile("../../examples/gcd/gcd.cg")
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(JobRequest{ID: "gcd", Source: string(src)})
	decodeJobs(t, postJobs(t, ts, "", "application/json", string(body)))
	waitFor(t, "job gcd done", func() bool { return getJob(t, ts, "gcd").Status == StatusDone })
	rec, _ := s.job("gcd")

	// want is the body writeJSON gives for the job's view with the
	// oracle's table of its current schedule.
	want := func(mode relsched.AnchorMode) string {
		v := s.view(rec, mode, false)
		v.Offsets = cgiotest.ReferenceString(rec.result.Schedule, mode)
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		return w.Body.String()
	}
	read := func(resp *http.Response) string {
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d; body: %s", resp.StatusCode, b)
		}
		return string(b)
	}
	modes := []relsched.AnchorMode{relsched.FullAnchors, relsched.RelevantAnchors, relsched.IrredundantAnchors}
	for _, mode := range modes {
		for i := 0; i < 2; i++ {
			resp, err := ts.Client().Get(ts.URL + "/v1/jobs/gcd?mode=" + mode.String())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := read(resp), want(mode); got != want {
				t.Errorf("GET %d, mode %v: body\n%s\nwant\n%s", i+1, mode, got, want)
			}
		}
	}
	for i, mode := range modes {
		edit := fmt.Sprintf(`{"edits":[{"op":"add_min","from":"read_xin","to":"if","weight":%d}]}`, 2+i)
		got := read(patchJob(t, ts, "gcd", "?mode="+mode.String(), edit))
		if want := want(mode); got != want {
			t.Errorf("PATCH, mode %v: body\n%s\nwant\n%s", mode, got, want)
		}
	}
	// The last edit, add_min read_xin if 4, puts if at σ_while = 1+4.
	table := getJob(t, ts, "gcd").Offsets
	if !strings.Contains(table, "\nif ") || strings.Fields(table[strings.Index(table, "\nif "):])[3] != "5" {
		t.Errorf("the table does not show the last PATCH:\n%s", table)
	}
}
