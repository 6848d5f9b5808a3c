package relsched

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/cg"
)

// This file is the scheduling half of the reactive delta layer (see
// docs/INCREMENTAL.md). Schedule.Apply re-schedules a graph edit without
// re-freezing or re-running the full Analyze:
//
//   - additions warm-start from the base offsets, which Lemma 8 proves are
//     valid lower bounds (offsets only increase as constraints are added),
//     and relax a raise-only worklist outward from the edited edge —
//     touching only the anchors whose reachability cone contains the edit
//     and only the vertices whose offsets actually move;
//   - removals, where offsets may decrease and Lemma 8 does not apply,
//     re-derive the affected anchors' rows from scratch — still restricted
//     to the anchors that could reach the removed edge;
//   - vertex insertion falls back to a cold rebuild (the one documented
//     heavyweight edit), and inserting an unbounded-delay vertex is
//     rejected outright: it would change the anchor set, which the delta
//     contract pins (AnchorDriftError).
//
// Apply is transactional: on any failure the graph edits are reverted in
// LIFO order and the base schedule remains the graph's valid schedule.
// Apply is also copy-on-write: it never mutates the base schedule's arena
// or analysis rows, so readers of the base may keep calling Offset
// concurrently with an Apply (the graph itself is mutated — see
// docs/INCREMENTAL.md for the exact reader contract).

// ErrStaleSchedule reports Apply (or Fork) on a schedule that no longer
// matches its graph: the graph's generation has moved past the
// schedule's, meaning a newer schedule in the delta chain exists (or the
// graph was edited behind the schedule's back). Only the newest schedule
// in a chain may apply further deltas.
var ErrStaleSchedule = errors.New("relsched: schedule is stale (the graph has newer edits; apply deltas to the newest schedule)")

// AnchorDriftError reports a delta edit that would change the graph's
// anchor set (Definition 2): inserting an unbounded-delay vertex, or — as
// a defense-in-depth re-check after a cold rebuild — any divergence
// between the base and rebuilt anchor lists. The delta contract pins the
// anchor set: anchor indices identify offset rows across the whole chain
// of schedules, so an edit that drifts them must go through a fresh
// Compute instead. This is the typed, documented form of what the old
// incremental path reported as an opaque "internal" error; servers map it
// to a client error (422), not a 500.
type AnchorDriftError struct {
	// Vertex is the vertex whose delay would create or displace an
	// anchor (the inserted vertex, or the first diverging anchor).
	Vertex cg.VertexID
	// Reason describes the drift.
	Reason string
}

// Error implements the error interface.
func (e *AnchorDriftError) Error() string {
	return fmt.Sprintf("relsched: anchor drift at vertex %d: %s", e.Vertex, e.Reason)
}

// deltaRaiseSlack pads the raise-only worklist budget: past
// deltaRaiseSlack + 4·|E| raises in one anchor row, Apply abandons the
// worklist for the classic sweep loop, whose |E_b|+1 bound (Theorem 8)
// either converges or proves the constraints inconsistent. The worklist's
// partial raises are kept — every raise is justified by a real path, so
// they remain valid lower bounds for the warm-started sweeps.
const deltaRaiseSlack = 64

// stackPool recycles the delta worklist across Apply calls.
var stackPool = sync.Pool{New: func() any { s := make([]int, 0, 64); return &s }}

// touchSet is a sparse vertex set: constant-time membership plus a dense
// list of members, so resetting costs O(|touched|), never O(V). It records
// which vertices an edit actually moved.
type touchSet struct {
	mark []bool
	list []int
}

func (t *touchSet) add(v int) {
	if !t.mark[v] {
		t.mark[v] = true
		t.list = append(t.list, v)
	}
}

func (t *touchSet) reset() {
	for _, v := range t.list {
		t.mark[v] = false
	}
	t.list = t.list[:0]
}

// deltaScratch is the pooled working set of the delta paths. All full-size
// arrays are reset sparsely (touchSet) or not at all (vals is fully
// written before being read), so a small edit on a large graph allocates
// and zeroes nothing proportional to the graph.
type deltaScratch struct {
	touched touchSet
	// removal-cone state: membership mask, member list, topo-ordered
	// member list, and the per-anchor value buffer of the restricted solve.
	inR   []bool
	rList []int
	topoR []int
	vals  []int
}

// size grows the full-size arrays to cover n vertices.
func (sc *deltaScratch) size(n int) {
	if len(sc.touched.mark) < n {
		sc.touched.mark = make([]bool, n)
		sc.inR = make([]bool, n)
		sc.vals = make([]int, n)
	}
}

// release resets the sparse state and returns the scratch to the pool.
func (sc *deltaScratch) release() {
	sc.touched.reset()
	for _, v := range sc.rList {
		sc.inR[v] = false
	}
	sc.rList = sc.rList[:0]
	sc.topoR = sc.topoR[:0]
	deltaPool.Put(sc)
}

// deltaPool recycles deltaScratch across Apply calls on all goroutines.
var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

// Apply applies the edits to the schedule's graph in order and returns a
// new schedule for the edited graph, leaving the receiver untouched. The
// receiver must be the newest schedule of its graph (ErrStaleSchedule
// otherwise). On error — a structural rejection from cg.ApplyEdit, an
// *IllPosedError, ErrUnfeasible, ErrInconsistent, or an
// *AnchorDriftError — every edit already applied to the graph is
// reverted and the receiver remains the graph's valid schedule.
//
// Additions cost O(cone): the copy of the offset arena plus work
// proportional to the vertices whose offsets, anchor sets, or
// reachability actually change. Removals re-derive the rows of the
// anchors that reached the removed edge. Vertex insertion re-runs the
// cold pipeline. Hooks carry over from the base schedule, so incremental
// re-schedules are traced exactly like the cold compute that produced
// the base.
func (s *Schedule) Apply(edits ...cg.Edit) (*Schedule, error) {
	if s.gen != s.G.Generation() {
		return nil, fmt.Errorf("%w (schedule gen %d, graph gen %d)", ErrStaleSchedule, s.gen, s.G.Generation())
	}
	if len(edits) == 0 {
		return s, nil
	}
	cur := s
	applied := make([]cg.Delta, 0, len(edits))
	for _, ed := range edits {
		next, d, err := cur.applyOne(ed)
		if err != nil {
			// applyOne reverted its own edit; unwind the earlier ones.
			for k := len(applied) - 1; k >= 0; k-- {
				if rerr := s.G.RevertDelta(applied[k]); rerr != nil {
					return nil, fmt.Errorf("relsched: rollback failed after %v: %w", err, rerr)
				}
			}
			return nil, err
		}
		applied = append(applied, d)
		cur = next
	}
	return cur, nil
}

// applyOne applies a single edit. On error the graph is left exactly as
// it was; on success the returned Delta can undo the edit.
func (s *Schedule) applyOne(ed cg.Edit) (*Schedule, cg.Delta, error) {
	switch ed.Op {
	case cg.EditInsertOp:
		return s.applyInsert(ed)
	case cg.EditRemoveEdge:
		return s.applyRemoval(ed)
	default:
		return s.applyAddition(ed)
	}
}

// revertAfter unwinds one graph delta after a scheduling failure,
// preserving the original error (a rollback failure would mean the graph
// is corrupt, which ApplyEdit/RevertDelta's LIFO contract rules out).
func revertAfter(g *cg.Graph, d cg.Delta, err error) (*Schedule, cg.Delta, error) {
	if rerr := g.RevertDelta(d); rerr != nil {
		return nil, cg.Delta{}, fmt.Errorf("relsched: rollback failed after %v: %w", err, rerr)
	}
	return nil, cg.Delta{}, err
}

// applyInsert handles vertex insertion: a bounded-delay insert re-runs
// the cold pipeline on the edited graph (arena width and every analysis
// table change shape), while an unbounded-delay insert is rejected with
// AnchorDriftError before touching the graph.
func (s *Schedule) applyInsert(ed cg.Edit) (*Schedule, cg.Delta, error) {
	if !ed.Delay.Bounded() {
		return nil, cg.Delta{}, &AnchorDriftError{
			Vertex: cg.VertexID(s.G.N()),
			Reason: "inserting an unbounded-delay vertex adds an anchor (Definition 2); recompute from scratch instead",
		}
	}
	g := s.G
	d, err := g.ApplyEdit(ed)
	if err != nil {
		return nil, cg.Delta{}, err
	}
	if err := CheckWellPosed(g); err != nil {
		return revertAfter(g, d, err)
	}
	info, err := Analyze(g)
	if err != nil {
		return revertAfter(g, d, err)
	}
	// Defense in depth for the anchor-identity contract: a bounded insert
	// must not move the anchor list (delays determine anchors).
	if len(info.List) != len(s.Info.List) {
		return revertAfter(g, d, &AnchorDriftError{Vertex: d.Vertex, Reason: "anchor count changed across rebuild"})
	}
	for i, a := range info.List {
		if a != s.Info.List[i] {
			return revertAfter(g, d, &AnchorDriftError{Vertex: a, Reason: "anchor list changed across rebuild"})
		}
	}
	next, err := schedule(info, s.hooks)
	if err != nil {
		return revertAfter(g, d, err)
	}
	return next, d, nil
}

// pair records one (anchor row, vertex) offset transition out of the
// NoOffset sentinel, for copy-on-write maintenance of the Reach rows.
type pair struct{ ai, v int }

// applyAddition is the hot path: a constraint addition re-scheduled by
// Lemma 8 warm start. The base offsets are valid lower bounds for the
// edited graph, so seeding the copied arena with them and relaxing a
// raise-only worklist outward from the new edge converges to the new
// minimum schedule, touching only the cone the edit actually moves.
func (s *Schedule) applyAddition(ed cg.Edit) (*Schedule, cg.Delta, error) {
	g := s.G
	d, err := g.ApplyEdit(ed)
	if err != nil {
		return nil, cg.Delta{}, err
	}
	e := d.Edge // stored orientation (backward for a max constraint)

	next := &Schedule{
		G: g, Iterations: s.Iterations, nV: s.nV,
		rows:  append([][]int(nil), s.rows...),
		hooks: s.hooks, gen: g.Generation(),
	}
	info := *s.Info
	next.Info = &info
	sc := deltaPool.Get().(*deltaScratch)
	sc.size(s.nV)
	ts := &sc.touched
	fail := func(err error) (*Schedule, cg.Delta, error) {
		sc.release() // the partial rows are discarded with next
		return revertAfter(g, d, err)
	}

	// Anchor-set maintenance and the Theorem 2 containment re-check. A
	// forward edge grows Full sets downstream of the head; a backward
	// edge changes no Full set but brings one containment obligation of
	// its own.
	var changedFull []int
	if e.Kind.Forward() {
		changedFull = info.growFull(e)
		for _, v := range changedFull {
			for _, ei := range g.OutEdges(cg.VertexID(v)) {
				be := g.Edge(ei)
				if be.Kind.Forward() {
					continue
				}
				if !info.Full[be.From].SubsetOf(info.Full[be.To]) {
					return fail(illPosed(&info, ei, be))
				}
			}
		}
	} else if !info.Full[e.From].SubsetOf(info.Full[e.To]) {
		return fail(illPosed(&info, d.EdgeIndex, e))
	}

	// Warm-started relaxation over the affected anchors: those whose
	// reachability cone contains the edit's tail. (Reach is a superset
	// of the FwdReach cone the forward seeds use; backward edges make
	// offsets exist beyond forward reachability, so affectedness must be
	// judged on the full-graph cone.) Everywhere else the base fixpoint
	// is untouched by the new edge. Rows are copy-on-write: an anchor
	// whose row the edit never raises keeps sharing the base storage.
	var reachAdds []pair
	ownFwd, ownReach := false, false
	nA := len(info.List)
	wlp := stackPool.Get().(*[]int)
	for ai := 0; ai < nA; ai++ {
		row := next.rows[ai]
		if row[e.From] == NoOffset {
			continue
		}
		writable := false
		own := func() {
			if !writable {
				row = append([]int(nil), row...)
				next.rows[ai] = row
				writable = true
			}
		}
		wl := (*wlp)[:0]
		// A forward edge may extend the anchor's forward-reachable set
		// V_a (Definition 3): newly reachable vertices seed at offset 0
		// (Lemma 8 floor) and join the worklist.
		if e.Kind.Forward() {
			fwd := info.fwdReach(ai)
			if fwd[e.From] && !fwd[e.To] {
				if !ownFwd {
					info.FwdReach = append([][]bool(nil), info.FwdReach...)
					ownFwd = true
				}
				nf := append([]bool(nil), fwd...)
				wl = growFwdReach(g, nf, int(e.To), wl)
				info.FwdReach[ai] = nf
				for _, v := range wl {
					if row[v] < 0 {
						if row[v] == NoOffset {
							reachAdds = append(reachAdds, pair{ai, v})
						}
						own()
						row[v] = 0
						ts.add(v)
					}
				}
			}
		}
		// Seed the worklist with the new edge's own relaxation.
		if dd := row[e.From] + e.MinWeight(); dd > row[e.To] {
			if row[e.To] == NoOffset {
				reachAdds = append(reachAdds, pair{ai, int(e.To)})
			}
			own()
			row[e.To] = dd
			ts.add(int(e.To))
			wl = append(wl, int(e.To))
		}
		if len(wl) > 0 {
			// A non-empty worklist implies a seed write, so row is the
			// private copy by now.
			var overflow bool
			wl, overflow = relaxWorklist(g, row, wl, ts, &reachAdds, ai)
			if overflow {
				// Classic warm-started sweeps: the partial raises are
				// valid lower bounds, so convergence or the Theorem 8
				// bound still decides.
				if err := next.solveRowsWarm([]int{ai}, ts, &reachAdds); err != nil {
					*wlp = wl
					stackPool.Put(wlp)
					return fail(next.classify(err))
				}
			}
		}
		*wlp = wl
	}
	stackPool.Put(wlp)

	// The offset rows are the new longest-path rows (Theorem 3; NoOffset
	// and cg.Unreachable are the same sentinel), so Longest is free.
	info.Longest = append([][]int(nil), next.rows...)
	for _, p := range reachAdds {
		if !ownReach {
			info.Reach = append([][]bool(nil), info.Reach...)
			ownReach = true
		}
		if sharedRow(info.Reach[p.ai], s.Info.Reach[p.ai]) {
			info.Reach[p.ai] = append([]bool(nil), info.Reach[p.ai]...)
		}
		info.Reach[p.ai][p.v] = true
	}

	info.growRelevant(s.Info, e)
	next.refreshIrredundant(changedFull, ts)

	s.hooks.relaxationSweep(1)
	s.hooks.readjustment(0)
	sc.release()
	return next, d, nil
}

// applyRemoval removes a constraint edge. Offsets may decrease, so Lemma
// 8's warm start does not apply; instead the recompute is restricted to
// the removal cone R — the vertices reachable from the removed edge's
// head along stored-orientation edges of any kind. Constraint effects
// propagate only along stored directions (forward relaxations and
// backward readjustments both push values From → To), so longest paths,
// reachability, forward reachability, and relevance are all unchanged
// outside R, and R is closed under out-edges — no value inside ever
// feeds one outside. Each affected anchor (those whose cone reached the
// edge's tail) has its row re-derived over R only, against the frozen
// boundary of base values on in-edges from outside R. Cost is
// O(|affected| · |R| · iterations) plus one O(V) topo filter — an edit
// near the sink of a large graph re-schedules in microseconds.
func (s *Schedule) applyRemoval(ed cg.Edit) (*Schedule, cg.Delta, error) {
	g := s.G
	if ed.EdgeIndex < 0 || ed.EdgeIndex >= g.M() {
		return nil, cg.Delta{}, fmt.Errorf("cg: edge index %d out of range [0,%d)", ed.EdgeIndex, g.M())
	}
	e := g.Edge(ed.EdgeIndex)
	var affected []int
	for ai := 0; ai < len(s.Info.List); ai++ {
		if s.rows[ai][e.From] != NoOffset {
			affected = append(affected, ai)
		}
	}
	d, err := g.ApplyEdit(ed)
	if err != nil {
		return nil, cg.Delta{}, err
	}

	next := &Schedule{
		G: g, Iterations: s.Iterations, nV: s.nV,
		rows:  append([][]int(nil), s.rows...),
		hooks: s.hooks, gen: g.Generation(),
	}
	info := *s.Info
	next.Info = &info
	sc := deltaPool.Get().(*deltaScratch)
	sc.size(s.nV)
	ts := &sc.touched
	fail := func(err error) (*Schedule, cg.Delta, error) {
		sc.release()
		return revertAfter(g, d, err)
	}

	// Full sets shrink only downstream of a removed forward edge;
	// re-derive them over the head's forward cone in topological order,
	// then re-check containment (Theorem 2) for backward edges into the
	// shrunk vertices — removing a serialization edge can re-expose
	// ill-posedness.
	var changedFull []int
	if e.Kind.Forward() {
		changedFull = info.shrinkFull(s.Info, int(e.To))
		for _, v := range changedFull {
			for _, ei := range g.InEdges(cg.VertexID(v)) {
				be := g.Edge(ei)
				if be.Kind.Forward() {
					continue
				}
				if !info.Full[be.From].SubsetOf(info.Full[be.To]) {
					return fail(illPosed(&info, ei, be))
				}
			}
		}
	}

	// Flood the removal cone R on the edited graph, collect its members
	// in topological order, and find the backward edges that re-enter it.
	inR := sc.inR
	inR[e.To] = true
	sc.rList = append(sc.rList, int(e.To))
	for k := 0; k < len(sc.rList); k++ {
		for _, ei := range g.OutEdges(cg.VertexID(sc.rList[k])) {
			if oe := g.Edge(ei); !inR[oe.To] {
				inR[oe.To] = true
				sc.rList = append(sc.rList, int(oe.To))
			}
		}
	}
	for _, v := range g.TopoForward() {
		if inR[v] {
			sc.topoR = append(sc.topoR, int(v))
		}
	}
	var bwdR []int
	for _, ei := range g.BackwardEdges() {
		if inR[g.Edge(ei).To] {
			bwdR = append(bwdR, ei)
		}
	}

	// Forward reachability can shrink after a forward-edge removal, but
	// only inside R (every forward path through the removed edge continues
	// from its head). One topo pass over R re-derives it from the
	// surviving forward in-edges, with the boundary read from base rows.
	ownFwd := false
	if e.Kind.Forward() {
		for _, ai := range affected {
			fwd := info.fwdReach(ai)
			a := int(info.List[ai])
			var nf []bool
			for _, v := range sc.topoR {
				val := v == a
				if !val {
					for _, ei := range g.InEdges(cg.VertexID(v)) {
						ie := g.Edge(ei)
						if !ie.Kind.Forward() {
							continue
						}
						u := int(ie.From)
						if nf != nil && inR[u] {
							val = nf[u]
						} else {
							val = fwd[u]
						}
						if val {
							break
						}
					}
				}
				if nf == nil && val != fwd[v] {
					nf = append([]bool(nil), fwd...)
				}
				if nf != nil {
					nf[v] = val
				}
			}
			if nf != nil {
				if !ownFwd {
					info.FwdReach = append([][]bool(nil), info.FwdReach...)
					ownFwd = true
				}
				info.FwdReach[ai] = nf
			}
		}
	}

	// Re-derive each affected row over R: seed the cone entries (0 inside
	// the anchor's forward reach, NoOffset outside — the cold seeds), then
	// iterate restricted forward passes and backward readjustments until
	// convergence. Removing a constraint from a consistent system keeps it
	// consistent, but the Theorem 8 bound guards regardless. Rows and
	// Reach rows whose values come out identical keep the base storage.
	vals := sc.vals
	ownReach := false
	maxIter := len(bwdR) + 1
	for _, ai := range affected {
		base := next.rows[ai]
		fwd := info.fwdReach(ai)
		for _, v := range sc.rList {
			if fwd[v] {
				vals[v] = 0
			} else {
				vals[v] = NoOffset
			}
		}
		converged := false
		iters := 0
		for iter := 1; iter <= maxIter; iter++ {
			iters = iter
			for _, v := range sc.topoR {
				best := vals[v]
				for _, ei := range g.InEdges(cg.VertexID(v)) {
					ie := g.Edge(ei)
					if !ie.Kind.Forward() {
						continue
					}
					f := base[ie.From]
					if inR[ie.From] {
						f = vals[ie.From]
					}
					if f == NoOffset {
						continue
					}
					if dd := f + ie.MinWeight(); dd > best {
						best = dd
					}
				}
				vals[v] = best
			}
			raised := 0
			for _, ei := range bwdR {
				be := g.Edge(ei)
				f := base[be.From]
				if inR[be.From] {
					f = vals[be.From]
				}
				if f == NoOffset {
					continue
				}
				if dd := f + be.Weight; dd > vals[be.To] {
					vals[be.To] = dd
					raised++
				}
			}
			if raised == 0 {
				converged = true
				break
			}
		}
		if !converged {
			return fail(next.classify(ErrInconsistent))
		}
		if iters > next.Iterations {
			next.Iterations = iters
		}
		var row []int
		var nr []bool
		for _, v := range sc.rList {
			if vals[v] != base[v] {
				if row == nil {
					row = append([]int(nil), base...)
					next.rows[ai] = row
				}
				row[v] = vals[v]
				ts.add(v)
			}
			if nb := vals[v] != NoOffset; nb != (base[v] != NoOffset) {
				if nr == nil {
					if !ownReach {
						info.Reach = append([][]bool(nil), info.Reach...)
						ownReach = true
					}
					nr = append([]bool(nil), info.Reach[ai]...)
					info.Reach[ai] = nr
				}
				nr[v] = nb
			}
		}
	}
	s.hooks.relaxationSweep(next.Iterations)

	info.Longest = append([][]int(nil), next.rows...)

	// Relevance can change only inside R: a defining path through the
	// removed edge continues from its head, so every vertex it marks past
	// the edit is in R. Re-derive R members from their in-edges — direct
	// unbounded edges contribute the tail anchor, bounded boundary edges
	// contribute the (unchanged) base sets — then propagate across bounded
	// edges inside R to the monotone fixpoint, mirroring refloodRelevant's
	// dataflow (a defining path never revisits its own anchor).
	nAbits := len(info.List)
	relNew := make(map[int]bitset.Set, len(sc.rList))
	for _, v := range sc.rList {
		set := bitset.New(nAbits)
		for _, ei := range g.InEdges(cg.VertexID(v)) {
			ie := g.Edge(ei)
			if ie.Unbounded {
				if ai, ok := info.Index[ie.From]; ok {
					set.Add(ai)
				}
			} else if !inR[ie.From] {
				set.UnionWith(info.Relevant[ie.From])
			}
		}
		if ai, ok := info.Index[cg.VertexID(v)]; ok {
			set.Remove(ai)
		}
		relNew[v] = set
	}
	relWl := append([]int(nil), sc.rList...)
	for len(relWl) > 0 {
		v := relWl[len(relWl)-1]
		relWl = relWl[:len(relWl)-1]
		m := relNew[v]
		for _, ei := range g.OutEdges(cg.VertexID(v)) {
			oe := g.Edge(ei)
			if oe.Unbounded || !inR[oe.To] {
				continue
			}
			t := relNew[int(oe.To)]
			add := m.AndNot(t)
			if ti, ok := info.Index[oe.To]; ok {
				add.Remove(ti)
			}
			if add.Empty() {
				continue
			}
			t.UnionWith(add)
			relWl = append(relWl, int(oe.To))
		}
	}
	ownRel := false
	for _, v := range sc.rList {
		if relNew[v].Equal(info.Relevant[v]) {
			continue
		}
		if !ownRel {
			info.Relevant = append([]bitset.Set(nil), info.Relevant...)
			ownRel = true
		}
		info.Relevant[v] = relNew[v]
	}

	next.refreshIrredundant(changedFull, ts)

	s.hooks.readjustment(0)
	sc.release()
	return next, d, nil
}

// classify maps a sweep-loop failure to the paper's verdicts: a positive
// cycle (the new constraint made the graph unfeasible, Theorem 1) or
// inconsistency (Corollary 2). The positive-cycle check runs on the
// error path only, where its lazy CSR rebuild is irrelevant.
func (s *Schedule) classify(err error) error {
	if errors.Is(err, ErrInconsistent) && s.G.HasPositiveCycle() {
		return ErrUnfeasible
	}
	return err
}

// illPosed builds the same *IllPosedError checkContainment reports, for
// the delta-path containment rechecks.
func illPosed(info *AnchorInfo, ei int, e cg.Edge) error {
	ill := &IllPosedError{Edge: ei, Tail: e.From, Head: e.To}
	info.Full[e.From].ForEach(func(i int) {
		if !info.Full[e.To].Has(i) {
			ill.Missing = append(ill.Missing, info.List[i])
		}
	})
	return ill
}

// growFwdReach floods forward from start over vertices not yet in fwd,
// marking them and appending them to out (which is returned).
func growFwdReach(g *cg.Graph, fwd []bool, start int, out []int) []int {
	if fwd[start] {
		return out
	}
	fwd[start] = true
	out = append(out, start)
	for k := len(out) - 1; k < len(out); k++ {
		v := cg.VertexID(out[k])
		for _, ei := range g.OutEdges(v) {
			e := g.Edge(ei)
			if !e.Kind.Forward() || fwd[e.To] {
				continue
			}
			fwd[e.To] = true
			out = append(out, int(e.To))
		}
	}
	return out
}

// relaxWorklist drains the raise-only worklist for one anchor row: pop a
// raised vertex, relax its out-edges (forward and backward alike), push
// heads that rose. Raises are justified by real paths from valid lower
// bounds, so the drained fixpoint is the row's new minimum schedule.
// overflow reports that the raise budget ran out (an inconsistency's
// unbounded cascade, or a pathological but consistent one) — the caller
// falls back to the bounded sweep loop.
func relaxWorklist(g *cg.Graph, row []int, wl []int, ts *touchSet, reachAdds *[]pair, ai int) (stack []int, overflow bool) {
	budget := deltaRaiseSlack + 4*g.M()
	for len(wl) > 0 {
		v := cg.VertexID(wl[len(wl)-1])
		wl = wl[:len(wl)-1]
		f := row[v]
		for _, ei := range g.OutEdges(v) {
			e := g.Edge(ei)
			if d := f + e.MinWeight(); d > row[e.To] {
				if row[e.To] == NoOffset {
					*reachAdds = append(*reachAdds, pair{ai, int(e.To)})
				}
				row[e.To] = d
				ts.add(int(e.To))
				wl = append(wl, int(e.To))
				if budget--; budget < 0 {
					return wl[:0], true
				}
			}
		}
	}
	return wl, false
}

// solveRowsWarm runs the classic §IV-E sweep/readjust loop over the given
// anchor rows on the adjacency view (the delta path leaves the CSR stale
// on purpose), warm-starting from the rows' current values.
// touched/reachAdds, when non-nil, record raised vertices and NoOffset
// transitions for the caller's copy-on-write bookkeeping.
func (s *Schedule) solveRowsWarm(rows []int, touched *touchSet, reachAdds *[]pair) error {
	g := s.G
	topo := g.TopoForward()
	bwd := g.BackwardEdges()
	maxIter := len(bwd) + 1
	solveRow := func(ai int) (int, error) {
		row := s.row(ai)
		for iter := 1; iter <= maxIter; iter++ {
			for _, v := range topo {
				f := row[v]
				if f == NoOffset {
					continue
				}
				for _, ei := range g.OutEdges(v) {
					e := g.Edge(ei)
					if !e.Kind.Forward() {
						continue
					}
					if d := f + e.MinWeight(); d > row[e.To] {
						if row[e.To] == NoOffset && reachAdds != nil {
							*reachAdds = append(*reachAdds, pair{ai, int(e.To)})
						}
						row[e.To] = d
						if touched != nil {
							touched.add(int(e.To))
						}
					}
				}
			}
			raised := 0
			for _, ei := range bwd {
				e := g.Edge(ei)
				f := row[e.From]
				if f == NoOffset {
					continue
				}
				if d := f + e.Weight; d > row[e.To] {
					if row[e.To] == NoOffset && reachAdds != nil {
						*reachAdds = append(*reachAdds, pair{ai, int(e.To)})
					}
					row[e.To] = d
					if touched != nil {
						touched.add(int(e.To))
					}
					raised++
				}
			}
			if raised == 0 {
				return iter, nil
			}
		}
		return maxIter, ErrInconsistent
	}
	var err error
	for _, ai := range rows {
		var iters int
		iters, err = solveRow(ai)
		if iters > s.Iterations {
			s.Iterations = iters
		}
		if err != nil {
			break
		}
	}
	s.hooks.relaxationSweep(s.Iterations)
	return err
}

// growFull merges the new forward edge's contribution — the tail's
// anchor set, plus the tail itself for an unbounded edge — into the
// head's forward cone, copy-on-write. Full sets are monotone along
// forward edges, so propagation stops wherever the contribution is
// already contained. Returns the vertices whose sets grew.
func (info *AnchorInfo) growFull(e cg.Edge) []int {
	g := info.G
	add := info.Full[e.From]
	if e.Unbounded {
		add = add.Clone()
		add.Add(info.Index[e.From])
	}
	if add.SubsetOf(info.Full[e.To]) {
		return nil
	}
	info.Full = append([]bitset.Set(nil), info.Full...)
	var changed []int
	stack := []int{int(e.To)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if add.SubsetOf(info.Full[v]) {
			continue
		}
		ns := info.Full[v].Clone()
		ns.UnionWith(add)
		info.Full[v] = ns
		changed = append(changed, v)
		for _, ei := range g.OutEdges(cg.VertexID(v)) {
			if oe := g.Edge(ei); oe.Kind.Forward() {
				stack = append(stack, int(oe.To))
			}
		}
	}
	return changed
}

// shrinkFull re-derives the full anchor sets over the forward cone of
// head after a forward-edge removal, in topological order from each cone
// vertex's surviving in-edges. Vertices outside the cone keep sharing
// the base storage. Returns the vertices whose sets changed.
func (info *AnchorInfo) shrinkFull(base *AnchorInfo, head int) []int {
	g := info.G
	cone := make([]bool, g.N())
	flood := []int{head}
	cone[head] = true
	for k := 0; k < len(flood); k++ {
		for _, ei := range g.OutEdges(cg.VertexID(flood[k])) {
			if e := g.Edge(ei); e.Kind.Forward() && !cone[e.To] {
				cone[e.To] = true
				flood = append(flood, int(e.To))
			}
		}
	}
	info.Full = append([]bitset.Set(nil), info.Full...)
	var changed []int
	scratch := bitset.New(len(info.List))
	for _, v := range g.TopoForward() {
		if !cone[v] {
			continue
		}
		scratch.Clear()
		for _, ei := range g.InEdges(v) {
			e := g.Edge(ei)
			if !e.Kind.Forward() {
				continue
			}
			scratch.UnionWith(info.Full[e.From])
			if e.Unbounded {
				scratch.Add(info.Index[e.From])
			}
		}
		if scratch.Equal(base.Full[v]) {
			info.Full[v] = base.Full[v]
			continue
		}
		info.Full[v] = scratch.Clone()
		changed = append(changed, int(v))
	}
	return changed
}

// growRelevant propagates the relevant-anchor contribution of a new edge
// (Definitions 8–9), copy-on-write against base. A bounded edge carries
// the tail's relevant set across; an unbounded edge starts defining
// paths for the tail anchor itself. Propagation follows bounded edges of
// any kind, never adds an anchor to its own set (defining paths leave
// the anchor, they do not revisit it), and stops where nothing is new —
// the same dataflow relevantAnchors floods from scratch.
func (info *AnchorInfo) growRelevant(base *AnchorInfo, e cg.Edge) {
	g := info.G
	var gain bitset.Set
	if e.Unbounded {
		gain = bitset.New(len(info.List))
		gain.Add(info.Index[e.From])
	} else {
		gain = base.Relevant[e.From]
	}
	owned := false
	type item struct {
		v int
		m bitset.Set
	}
	stack := []item{{int(e.To), gain}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m := it.m.AndNot(info.Relevant[it.v])
		if idx, ok := info.Index[cg.VertexID(it.v)]; ok {
			m.Remove(idx)
		}
		if m.Empty() {
			continue
		}
		if !owned {
			info.Relevant = append([]bitset.Set(nil), info.Relevant...)
			owned = true
		}
		ns := info.Relevant[it.v].Clone()
		ns.UnionWith(m)
		info.Relevant[it.v] = ns
		for _, ei := range g.OutEdges(cg.VertexID(it.v)) {
			if oe := g.Edge(ei); !oe.Unbounded {
				stack = append(stack, item{int(oe.To), m})
			}
		}
	}
}

// refloodRelevant clears and re-floods the given anchors' relevance bits
// over the current graph — the per-anchor pass of relevantAnchors,
// restricted to the anchors a removal could have affected. Relevant must
// already be privately owned.
func (info *AnchorInfo) refloodRelevant(anchors []int) {
	g := info.G
	for v := range info.Relevant {
		for _, ai := range anchors {
			info.Relevant[v].Remove(ai)
		}
	}
	seen := make([]bool, g.N())
	var stack []cg.VertexID
	cross := func(v cg.VertexID, unbounded bool) {
		for _, ei := range g.OutEdges(v) {
			if e := g.Edge(ei); e.Unbounded == unbounded {
				stack = append(stack, e.To)
			}
		}
	}
	for _, ai := range anchors {
		a := info.List[ai]
		for i := range seen {
			seen[i] = false
		}
		seen[a] = true
		stack = stack[:0]
		cross(a, true)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			info.Relevant[v].Add(ai)
			cross(v, false)
		}
	}
}

// refreshIrredundant re-runs the Definition 11 domination test at every
// vertex the edit could have re-ranked: vertices whose full anchor set
// changed, vertices whose offsets moved, and vertices whose set contains
// an anchor whose own offsets moved (the test compares path lengths
// through anchors). Sets that come out unchanged keep sharing the base
// storage.
func (next *Schedule) refreshIrredundant(changedFull []int, ts *touchSet) {
	info := next.Info
	nA := len(info.List)
	anchorsMoved := bitset.New(nA)
	moved := false
	for ai, a := range info.List {
		if ts.mark[a] {
			anchorsMoved.Add(ai)
			moved = true
		}
	}
	owned := false
	scratch := bitset.New(nA)
	var buf []int
	redo := func(v int) {
		buf = info.irredundantAt(v, info.Longest, scratch, buf)
		if scratch.Equal(info.Irredundant[v]) {
			return
		}
		if !owned {
			info.Irredundant = append([]bitset.Set(nil), info.Irredundant...)
			owned = true
		}
		info.Irredundant[v] = scratch
		scratch = bitset.New(nA)
	}
	if moved {
		// An anchor's own offsets moved: the domination comparison can
		// flip at any vertex whose set contains it — one O(V) scan.
		for v := 0; v < next.nV; v++ {
			if ts.mark[v] || info.Full[v].Intersects(anchorsMoved) {
				redo(v)
			}
		}
		for _, v := range changedFull {
			if !ts.mark[v] && !info.Full[v].Intersects(anchorsMoved) {
				redo(v)
			}
		}
		return
	}
	// Common case: only non-anchor offsets moved. The recompute is
	// idempotent and Equal-guarded, so overlap between the two candidate
	// lists is harmless — no dedup pass needed.
	for _, v := range changedFull {
		redo(v)
	}
	for _, v := range ts.list {
		redo(v)
	}
}

// sharedRow reports whether two bool rows share storage.
func sharedRow(a, b []bool) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// Fork returns a schedule equivalent to s whose graph is a private
// frozen clone, sharing the (copy-on-write, never-mutated) offset arena
// and analysis rows. Apply mutates the schedule's graph in place, so
// callers holding schedules from a shared cache — the engine's memoized
// entries are immutable by contract — must Fork before applying deltas;
// edits to the fork never touch the original graph or schedule.
func (s *Schedule) Fork() (*Schedule, error) {
	if s.gen != s.G.Generation() {
		return nil, fmt.Errorf("%w (schedule gen %d, graph gen %d)", ErrStaleSchedule, s.gen, s.G.Generation())
	}
	g2 := s.G.Clone()
	if err := g2.Freeze(); err != nil {
		return nil, err
	}
	info := *s.Info
	info.G = g2
	return &Schedule{
		G: g2, Info: &info, Iterations: s.Iterations,
		rows: s.rows, nV: s.nV, hooks: s.hooks,
		gen: g2.Generation(),
	}, nil
}

// Generation returns the graph generation this schedule describes; it
// matches G.Generation() exactly when the schedule is the newest in its
// delta chain (the only one Apply accepts).
func (s *Schedule) Generation() uint64 { return s.gen }
