package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/cg"
	"repro/internal/logx"
	"repro/internal/relsched"
)

// This file is PATCH /v1/jobs/{id}: reactive what-if editing of a
// completed job's constraint graph through the engine's cone-bounded
// delta path (Engine.ApplyDelta), instead of resubmitting a full graph
// per probe. The first patch forks the job's schedule — engine cache
// entries are shared and immutable — so edits never leak into other
// jobs with the same fingerprint; follow-up patches chain on the fork.
// Endpoint, status codes, and body shapes are documented with curl
// transcripts in docs/SERVICE.md.

// EditRequest is one graph edit of a PATCH body. Vertices are named (the
// names of the job's .cg source); constraints are identified by their
// endpoints as the client wrote them — the server handles the Table I
// backward storage of maximum constraints internally.
type EditRequest struct {
	// Op selects the edit: add_min, add_max, add_serialization,
	// remove_min, remove_max, remove_serialization, insert_op.
	Op string `json:"op"`
	// From/To name the constraint endpoints (all ops except insert_op).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Weight is the constraint bound: l for add_min, u for add_max.
	Weight int `json:"weight,omitempty"`
	// insert_op fields: a new operation Name with Delay cycles (or an
	// unbounded delay when Unbounded is set), spliced between Pred and
	// Succ. Unbounded inserts are always refused with 422 anchor_drift —
	// they would add an anchor, which the delta contract forbids — but the
	// field exists so clients learn that from a typed refusal rather than
	// a validation 400.
	Name      string `json:"name,omitempty"`
	Delay     int    `json:"delay,omitempty"`
	Unbounded bool   `json:"unbounded,omitempty"`
	Pred      string `json:"pred,omitempty"`
	Succ      string `json:"succ,omitempty"`
}

// PatchRequest is the PATCH /v1/jobs/{id} body. Edits apply atomically:
// either every edit is applied and the response carries the re-scheduled
// offsets, or none is and the job is unchanged.
type PatchRequest struct {
	Edits []EditRequest `json:"edits"`
}

// resolveEdit translates one EditRequest against the job's graph.
// Resolution errors (unknown op, unknown vertex, no matching constraint)
// are client errors — the handler maps them to 400.
func resolveEdit(g *cg.Graph, i int, req EditRequest) (cg.Edit, error) {
	vertex := func(name, field string) (cg.VertexID, error) {
		if name == "" {
			return cg.None, fmt.Errorf("edit %d (%s): missing %q", i, req.Op, field)
		}
		v := g.VertexByName(name)
		if v == cg.None {
			return cg.None, fmt.Errorf("edit %d (%s): unknown vertex %q", i, req.Op, name)
		}
		return v, nil
	}
	endpoints := func() (cg.VertexID, cg.VertexID, error) {
		f, err := vertex(req.From, "from")
		if err != nil {
			return cg.None, cg.None, err
		}
		t, err := vertex(req.To, "to")
		if err != nil {
			return cg.None, cg.None, err
		}
		return f, t, nil
	}
	// findEdge locates the stored edge of a client-phrased constraint.
	// Maximum constraints are stored backward with swapped endpoints
	// (Table I), so the client's from→to max is the stored to→from edge.
	findEdge := func(kind cg.EdgeKind) (cg.Edit, error) {
		f, t, err := endpoints()
		if err != nil {
			return cg.Edit{}, err
		}
		sf, st := f, t
		if kind == cg.MaxConstraint {
			sf, st = t, f
		}
		for ei, e := range g.Edges() {
			if e.Kind == kind && e.From == sf && e.To == st {
				return cg.RemoveEdgeEdit(ei), nil
			}
		}
		return cg.Edit{}, fmt.Errorf("edit %d (%s): no %v constraint %s → %s", i, req.Op, kind, req.From, req.To)
	}
	switch req.Op {
	case "add_min":
		f, t, err := endpoints()
		if err != nil {
			return cg.Edit{}, err
		}
		if req.Weight < 0 {
			return cg.Edit{}, fmt.Errorf("edit %d (add_min): negative bound %d", i, req.Weight)
		}
		return cg.AddMinEdit(f, t, req.Weight), nil
	case "add_max":
		f, t, err := endpoints()
		if err != nil {
			return cg.Edit{}, err
		}
		return cg.AddMaxEdit(f, t, req.Weight), nil
	case "add_serialization":
		f, t, err := endpoints()
		if err != nil {
			return cg.Edit{}, err
		}
		return cg.AddSerializationEdit(f, t), nil
	case "remove_min":
		return findEdge(cg.MinConstraint)
	case "remove_max":
		return findEdge(cg.MaxConstraint)
	case "remove_serialization":
		return findEdge(cg.Serialization)
	case "insert_op":
		if req.Name == "" {
			return cg.Edit{}, fmt.Errorf("edit %d (insert_op): missing \"name\"", i)
		}
		if req.Delay < 0 {
			return cg.Edit{}, fmt.Errorf("edit %d (insert_op): negative delay %d", i, req.Delay)
		}
		p, err := vertex(req.Pred, "pred")
		if err != nil {
			return cg.Edit{}, err
		}
		q, err := vertex(req.Succ, "succ")
		if err != nil {
			return cg.Edit{}, err
		}
		d := cg.Cycles(req.Delay)
		if req.Unbounded {
			d = cg.UnboundedDelay()
		}
		return cg.InsertOpEdit(req.Name, d, p, q), nil
	default:
		return cg.Edit{}, fmt.Errorf("edit %d: unknown op %q", i, req.Op)
	}
}

// patchVerdict maps a rejected delta to its HTTP status and the
// machine-readable reason of the error body. Everything the constraint
// system itself refuses — unfeasible, inconsistent, ill-posed, a closed
// forward cycle, a polarity-breaking removal, an anchor-drifting insert —
// is a 422: the request was well-formed, the semantics reject it. The
// typed AnchorDriftError exists exactly so this mapping never falls
// through to a 500 (the old incremental path reported it as an opaque
// "internal" error).
func patchVerdict(err error) (int, string) {
	var ill *relsched.IllPosedError
	var drift *relsched.AnchorDriftError
	switch {
	case errors.As(err, &ill):
		return http.StatusUnprocessableEntity, "ill_posed"
	case errors.As(err, &drift):
		return http.StatusUnprocessableEntity, "anchor_drift"
	case errors.Is(err, relsched.ErrUnfeasible):
		return http.StatusUnprocessableEntity, "unfeasible"
	case errors.Is(err, relsched.ErrInconsistent):
		return http.StatusUnprocessableEntity, "inconsistent"
	case errors.Is(err, cg.ErrForwardCycle):
		return http.StatusUnprocessableEntity, "cycle"
	case errors.Is(err, cg.ErrEditPolarity):
		return http.StatusUnprocessableEntity, "polarity"
	case errors.Is(err, cg.ErrEditStructural):
		return http.StatusUnprocessableEntity, "structural"
	case errors.Is(err, relsched.ErrStaleSchedule):
		// renderMu serializes patches per record, so a stale schedule
		// means a concurrent writer broke the contract — surface it as a
		// conflict rather than lying with a 422.
		return http.StatusConflict, "stale"
	default:
		return http.StatusUnprocessableEntity, "rejected"
	}
}

// handleJobPatch is PATCH /v1/jobs/{id}: apply graph edits to a
// completed job and re-schedule incrementally. Responses:
//
//	200 JobView             all edits applied; offsets are the new schedule
//	400                     malformed JSON, unknown op/vertex/constraint
//	404                     unknown job id
//	409                     job is not in status "done"
//	422 {"reason":...}      the constraint system rejected the edits
//	                        (unfeasible, inconsistent, ill_posed, cycle,
//	                        polarity, structural, anchor_drift); the job
//	                        is unchanged
//	503                     draining
func (s *Server) handleJobPatch(w http.ResponseWriter, r *http.Request, id string, mode relsched.AnchorMode) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting edits")
		return
	}
	rec, ok := s.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q (never accepted, or its result was evicted)", id)
		return
	}
	var req PatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid patch: %v", err)
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, http.StatusBadRequest, "no edits in request")
		return
	}

	// renderMu serializes this patch against other patches and against
	// offset renders of this record (Apply mutates the record's graph).
	rec.renderMu.Lock()
	s.storeMu.Lock()
	status := rec.status
	sched := rec.result.Schedule
	patches := rec.patches
	s.storeMu.Unlock()
	if status != StatusDone || sched == nil {
		rec.renderMu.Unlock()
		writeError(w, http.StatusConflict, "job %q is %s; only completed jobs can be patched", id, status)
		return
	}

	// First patch: fork off the shared (immutable) cache entry so edits
	// stay private to this job. Later patches chain on the fork.
	cur := sched
	if patches == 0 {
		f, err := sched.Fork()
		if err != nil {
			rec.renderMu.Unlock()
			status, reason := patchVerdict(err)
			writeJSON(w, status, errorBody{Error: err.Error(), Reason: reason})
			return
		}
		cur = f
	}

	edits := make([]cg.Edit, len(req.Edits))
	for i, er := range req.Edits {
		ed, err := resolveEdit(cur.G, i, er)
		if err != nil {
			rec.renderMu.Unlock()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		edits[i] = ed
	}

	next, err := s.eng.ApplyDelta(cur, edits...)
	if err != nil {
		rec.renderMu.Unlock()
		status, reason := patchVerdict(err)
		writeJSON(w, status, errorBody{Error: err.Error(), Reason: reason})
		return
	}

	s.storeMu.Lock()
	rec.result.Schedule = next
	rec.result.Info = next.Info
	rec.result.Graph = next.G
	rec.patches += len(edits)
	s.storeMu.Unlock()
	rec.renderMu.Unlock()

	s.patched.Add(uint64(len(edits)))
	ev := s.event(EventPatched, rec)
	ev.Edits = len(edits)
	s.events.publish(ev)
	logx.LogAttrs(s.log, slog.LevelInfo, "job patched", slog.String("job", id), slog.Int("edits", len(edits)))
	writeJSON(w, http.StatusOK, s.view(rec, mode, true))
}
