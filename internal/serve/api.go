package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cgio"
	"repro/internal/logx"
	"repro/internal/relsched"
)

// This file is the HTTP face of the Server: routing, request decoding
// (single JSON object or JSONL batch), and response rendering. Every
// endpoint, status code, and body shape here is documented — with curl
// transcripts — in docs/SERVICE.md; keep the two in sync.

// maxRequestBody bounds POST bodies (a .cg source is text; 8 MiB is
// thousands of times the largest paper design).
const maxRequestBody = 8 << 20

// TenantHeader names the header admission keys tenants by.
const TenantHeader = "X-Tenant"

// Handler returns the server's full mux: the job API under /v1/ and the
// shared observability surface (/metrics, /healthz, /readyz,
// /debug/trace) via MountDebug, with /readyz bound to Server.Ready so
// it flips 503 the moment drain starts. The whole mux is wrapped in the
// request-scoped middleware (middleware.go): every request gets a
// traceparent + X-Request-ID and lands in
// serve.http.requests{route,method,code}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobGet)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/slo", s.handleSLO)
	mux.HandleFunc("/v1/admin/config", s.handleAdminConfig)
	mux.HandleFunc("/v1/admin/profile", s.handleAdminProfile)
	mux.HandleFunc("/v1/events", s.handleEvents)
	MountDebug(mux, s.eng.Metrics(), s.tracer, s.Ready)
	return s.withRequestScope(mux)
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
	// Reason is machine-readable on 429s: queue_full, rate, quota.
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		// Retry-After is integer seconds; round up so "wait 300ms" does
		// not become "retry immediately".
		secs := int64((e.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.status, errorBody{Error: e.msg, Reason: e.reason})
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxTimeoutMS is the largest timeout_ms whose duration fits in a
// time.Duration; a larger one would wrap to a short deadline.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// handleJobs is POST /v1/jobs: one JobRequest (application/json) or a
// JSONL batch (application/x-ndjson, application/jsonl, or any body
// whose first line parses as one object per line). Admission is atomic
// per request. Responses:
//
//	202 {"jobs":[JobView...]}  every job accepted (status "queued")
//	400                        malformed JSON, unparseable .cg source, or a
//	                           timeout_ms over maxTimeoutMS
//	409                        a submitted ID already exists
//	413                        body over maxRequestBody
//	429 + Retry-After          shed: queue full, rate limit, or quota
//	503                        draining
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST /v1/jobs")
		return
	}
	reqs, err := decodeJobRequests(r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxRequestBody)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "no jobs in request")
		return
	}
	jobs := make([]parsedJob, len(reqs))
	for i, req := range reqs {
		if strings.TrimSpace(req.Source) == "" {
			writeError(w, http.StatusBadRequest, "job %d: missing \"source\"", i)
			return
		}
		if req.TimeoutMS > maxTimeoutMS {
			writeError(w, http.StatusBadRequest, "job %d: timeout_ms %d over the limit %d", i, req.TimeoutMS, maxTimeoutMS)
			return
		}
		g, err := cgio.ParseString(req.Source)
		if err != nil {
			writeError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		jobs[i] = parsedJob{
			id:       req.ID,
			design:   req.Design,
			graph:    g,
			wellPose: req.WellPose,
			timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		}
	}

	records, apiErr := s.submit(r.Header.Get(TenantHeader), jobs, requestMeta(r))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	views := make([]JobView, len(records))
	for i, rec := range records {
		views[i] = s.view(rec, relsched.IrredundantAnchors, false)
	}
	writeJSON(w, http.StatusAccepted, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

// decodeJobRequests parses the POST body: a single JSON object, a JSON
// array of objects, or JSONL (one object per line, blank and '#' lines
// skipped — the same conventions as `relsched batch -manifest`). JSONL
// is selected by Content-Type (application/x-ndjson or
// application/jsonl); everything else is decoded by shape. The body is
// read once and decoded in place, never copied.
func decodeJobRequests(r *http.Request) ([]JobRequest, error) {
	data, err := readBody(r)
	if err != nil {
		return nil, err
	}
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(ct) {
	case "application/x-ndjson", "application/jsonl", "application/x-jsonlines":
		return decodeJSONL(data)
	}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		var reqs []JobRequest
		if err := json.Unmarshal(data, &reqs); err != nil {
			return nil, fmt.Errorf("invalid JSON: %w", err)
		}
		return reqs, nil
	}
	var req JobRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	return []JobRequest{req}, nil
}

// readBody reads the request body, at most maxRequestBody bytes. A valid
// Content-Length sizes the buffer exactly, so the read allocates the body
// once; without one the buffer grows as io.ReadAll grows it.
func readBody(r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(nil, r.Body, maxRequestBody)
	if n := r.ContentLength; n > 0 && n <= maxRequestBody {
		data := make([]byte, n)
		if _, err := io.ReadFull(body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(body)
}

// decodeJSONL parses one JobRequest per line of data, split on '\n' in
// place; a line's surrounding space, a trailing '\r' included, is trimmed.
func decodeJSONL(data []byte) ([]JobRequest, error) {
	var reqs []JobRequest
	for line := 1; len(data) > 0; line++ {
		var text []byte
		text, data, _ = bytes.Cut(data, []byte{'\n'})
		text = bytes.TrimSpace(text)
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var req JobRequest
		if err := json.Unmarshal(text, &req); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// handleJobGet is GET and PATCH /v1/jobs/{id}. GET returns the job's
// current JobView — 200 with status queued/running/done/failed, or 404
// for an ID the server never accepted or has evicted. PATCH applies
// graph edits through the incremental delta path (see handleJobPatch).
// ?mode=full|relevant|irredundant picks the offset table's anchor sets
// (default irredundant) for both methods.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPatch {
		w.Header().Set("Allow", "GET, PATCH")
		writeError(w, http.StatusMethodNotAllowed, "use GET or PATCH /v1/jobs/{id}")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusNotFound, "want /v1/jobs/{id}")
		return
	}
	mode := relsched.IrredundantAnchors
	switch m := r.URL.Query().Get("mode"); m {
	case "", "irredundant":
	case "full":
		mode = relsched.FullAnchors
	case "relevant":
		mode = relsched.RelevantAnchors
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want full, relevant, or irredundant)", m)
		return
	}
	if r.Method == http.MethodPatch {
		s.handleJobPatch(w, r, id, mode)
		return
	}
	rec, ok := s.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q (never accepted, or its result was evicted)", id)
		return
	}
	writeJSON(w, http.StatusOK, s.view(rec, mode, true))
}

// handleStatus is GET /v1/status: the StatusView snapshot.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET /v1/status")
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

// handleSLO is GET /v1/slo: the SLO tracker's objectives, window sums,
// burn rates, and last burn firing (with its flight bundle and profile
// capture paths). With tracking disabled it answers {"enabled": false}.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET /v1/slo")
		return
	}
	writeJSON(w, http.StatusOK, s.slo.view(s.now()))
}

// handleAdminProfile is POST /v1/admin/profile: trigger an on-demand
// CPU+heap profile capture (the same rate-limited path SLO burns and
// flight dumps use). Responses:
//
//	202 prof.Capture      capture started; the heap file exists, the CPU
//	                      file appears when its recording window closes
//	404                   the daemon was started without a profile dir
//	429                   rate-limited, capped, or already capturing
func (s *Server) handleAdminProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST /v1/admin/profile")
		return
	}
	if !s.prof.CaptureEnabled() {
		writeError(w, http.StatusNotFound, "profile capture is not enabled (start with -prof-dir)")
		return
	}
	pc, ok := s.prof.Capture("manual")
	if !ok {
		writeError(w, http.StatusTooManyRequests, "capture refused: rate-limited, capped, or already in flight")
		return
	}
	writeJSON(w, http.StatusAccepted, pc)
}

// ConfigRequest is the POST /v1/admin/config body. Every field is
// optional; present fields are applied, the response is the resulting
// StatusView. Workers resizes the serving pool (>= 1; shrinks finish
// their current job first). CacheCapacity rebounds the engine's memo
// LRU (evicting down if needed; <= 0 restores the engine default).
// Rate/Burst/TenantQuota hot-swap the tenant admission policy.
type ConfigRequest struct {
	Workers       *int     `json:"workers,omitempty"`
	CacheCapacity *int     `json:"cache_capacity,omitempty"`
	RatePerTenant *float64 `json:"rate_per_tenant,omitempty"`
	Burst         *int     `json:"burst,omitempty"`
	TenantQuota   *int     `json:"tenant_quota,omitempty"`
}

// handleAdminConfig is POST /v1/admin/config (hot reload) and GET (the
// current effective config, as a StatusView). Reload is refused with
// 503 once drain has started — the pool is winding down.
func (s *Server) handleAdminConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Status())
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST /v1/admin/config")
		return
	}
	var req ConfigRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}
	if req.Workers != nil && *req.Workers < 1 {
		writeError(w, http.StatusBadRequest, "workers must be >= 1")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining; config is frozen")
		return
	}
	if req.CacheCapacity != nil {
		s.eng.SetCacheCapacity(*req.CacheCapacity)
	}
	if req.RatePerTenant != nil || req.Burst != nil || req.TenantQuota != nil {
		rate, burst, quota := s.limiter.policy()
		if req.RatePerTenant != nil {
			rate = *req.RatePerTenant
		}
		if req.Burst != nil {
			burst = *req.Burst
		}
		if req.TenantQuota != nil {
			quota = *req.TenantQuota
		}
		s.limiter.setPolicy(rate, burst, quota)
	}
	if req.Workers != nil {
		s.resizePool(*req.Workers)
	}
	logx.LogAttrs(s.log, slog.LevelInfo, "config reloaded", slog.Int("workers", s.Workers()))
	writeJSON(w, http.StatusOK, s.Status())
}
