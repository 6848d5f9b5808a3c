package relsched

import (
	"errors"
	"fmt"
	"slices"
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
//     touching only the anchors whose σ is defined at the edit's tail and
//     only the vertices whose offsets actually move;
//   - removals, where offsets may decrease and Lemma 8 does not apply,
//     re-derive the affected anchors' offsets from scratch — still
//     restricted to the cone of vertices the removed edge could reach;
//   - a bounded operation x spliced in as pred→x→succ grows every
//     per-vertex table by one entry for x, taken from pred (x's only
//     in-edge is pred→x, so every path to x ends there — Theorem 3), and
//     then re-schedules the x→succ edge as an addition. Inserting an
//     unbounded-delay vertex is rejected outright: it would change the
//     anchor set, which the delta contract pins (AnchorDriftError).
//
// Apply is transactional: on any failure the graph edits are reverted in
// LIFO order and the base schedule remains the graph's valid schedule.
// Apply is also copy-on-write: it never mutates the base schedule's σ
// columns or analysis sets, so readers of the base may keep calling
// Offset concurrently with an Apply (the graph itself is mutated — see
// docs/INCREMENTAL.md for the exact reader contract).

// ErrStaleSchedule reports Apply (or Fork) on a schedule that no longer
// matches its graph: the graph's generation has moved past the
// schedule's, meaning a newer schedule in the delta chain exists (or the
// graph was edited behind the schedule's back). Only the newest schedule
// in a chain may apply further deltas.
var ErrStaleSchedule = errors.New("relsched: schedule is stale (the graph has newer edits; apply deltas to the newest schedule)")

// AnchorDriftError reports a delta edit that would change the graph's
// anchor set (Definition 2): inserting an unbounded-delay vertex. The
// delta contract pins the
// anchor set: anchor indices identify offset rows across the whole chain
// of schedules, so an edit that drifts them must go through a fresh
// Compute instead. This is the typed, documented form of what the old
// incremental path reported as an opaque "internal" error; servers map it
// to a client error (422), not a 500.
type AnchorDriftError struct {
	// Vertex is the vertex whose delay would create an anchor: the ID the
	// inserted vertex would have received.
	Vertex cg.VertexID
	// Reason describes the drift.
	Reason string
}

// Error implements the error interface.
func (e *AnchorDriftError) Error() string {
	return fmt.Sprintf("relsched: anchor drift at vertex %d: %s", e.Vertex, e.Reason)
}

// deltaRaiseSlack pads the raise-only worklist budget: past
// deltaRaiseSlack + 4·|E| raises for one anchor, Apply abandons the
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

// deltaScratch is the pooled working set of one edit. All full-size
// arrays are reset sparsely (touchSet) or not at all (vals is fully
// written before being read), so a small edit on a large graph allocates
// and zeroes nothing proportional to the graph.
type deltaScratch struct {
	// touched holds the vertices whose σ columns the edit copied and
	// wrote — exactly the vertices whose offsets moved.
	touched touchSet
	// owned records which of the derived schedule's tables the edit has
	// already copied away from the base; ownedChunks does the same for
	// the chunks of column headers in the σ table.
	owned       struct{ cols, full, relevant, irredundant bool }
	ownedChunks []bool
	// removal-cone state: membership mask, member list, topo-ordered
	// member list, and the per-anchor value buffer of the restricted solve.
	inR   []bool
	rList []int
	topoR []int
	vals  []int
	// lv and lq spread the σ columns of the vertex whose irredundant set is
	// tested and of the anchor compared against it, for the domination
	// test's reads.
	lv, lq spread
}

// newDeltaScratch takes a scratch from the pool, grown to cover n
// vertices.
func newDeltaScratch(n int) *deltaScratch {
	sc := deltaPool.Get().(*deltaScratch)
	if len(sc.touched.mark) < n {
		n += n / 8 // room for a chain of inserts
		sc.touched.mark = make([]bool, n)
		sc.inR = make([]bool, n)
		sc.vals = make([]int, n)
		sc.ownedChunks = make([]bool, n>>sigmaChunkBits+1)
	}
	return sc
}

// release resets the sparse state and returns the scratch to the pool.
func (sc *deltaScratch) release() {
	sc.touched.reset()
	for _, v := range sc.rList {
		sc.inR[v] = false
	}
	sc.rList = sc.rList[:0]
	sc.topoR = sc.topoR[:0]
	sc.owned = struct{ cols, full, relevant, irredundant bool }{}
	clear(sc.ownedChunks)
	sc.lv.clear()
	sc.lq.clear()
	deltaPool.Put(sc)
}

// deltaPool recycles deltaScratch across Apply calls on all goroutines.
var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

// own returns tab itself if the edit already owns it, else a private copy
// of the per-vertex table (the entries, not what they point to), marking
// it owned. Every delta write goes through an owned table, so the base
// schedule's tables are never written.
func own[T any](tab []T, owned *bool) []T {
	if *owned {
		return tab
	}
	*owned = true
	return append([]T(nil), tab...)
}

// grow appends last to the per-vertex table tab: in place when inPlace —
// the caller holds the claim on the room past tab's end — and tab has
// room, else into a new array with append's headroom. copied reports the
// latter, after which the table is the edit's own.
func grow[T any](tab []T, last T, inPlace bool) (out []T, copied bool) {
	if inPlace && len(tab) < cap(tab) {
		return append(tab, last), false
	}
	return append(tab[:len(tab):len(tab)], last), true
}

// ownChunk makes the chunk of column headers holding vertex v private to
// next, copying the chunk index first if the edit has not yet.
func (sc *deltaScratch) ownChunk(next *Schedule, v int) [][]sigmaEntry {
	t := &next.cols
	t.chunks = own(t.chunks, &sc.owned.cols)
	k := v >> sigmaChunkBits
	if !sc.ownedChunks[k] {
		t.chunks[k] = append([][]sigmaEntry(nil), t.chunks[k]...)
		sc.ownedChunks[k] = true
	}
	return t.chunks[k]
}

// set writes σ_a(v) = val for anchor index ai into next, copying v's
// column (and its chunk of headers) on the edit's first write to it, with
// room for one inserted pair. It overwrites or inserts in anchor order,
// and val == NoOffset deletes the pair, so columns stay canonical.
func (sc *deltaScratch) set(next *Schedule, v, ai, val int) {
	chunk := sc.ownChunk(next, v)
	i := v & (1<<sigmaChunkBits - 1)
	c := chunk[i]
	if !sc.touched.mark[v] {
		c = append(make([]sigmaEntry, 0, len(c)+1), c...)
		sc.touched.add(v)
	}
	switch k := search(c, ai); {
	case k < len(c) && c[k].ai == ai && val == NoOffset:
		c = slices.Delete(c, k, k+1)
	case k < len(c) && c[k].ai == ai:
		c[k].off = val
	case val != NoOffset:
		c = slices.Insert(c, k, sigmaEntry{ai, val})
	}
	chunk[i] = c
}

// spread is one σ column spread over every anchor index, NoOffset where
// the column holds no pair, for reads by anchor index.
type spread struct {
	row []int
	col []sigmaEntry // the column row holds
}

// of returns col spread over nA anchor indices, replacing the column
// spread before. The row is valid until the next call. A column is
// recognized by its first pair's address and its length, so it must not
// change in place while spread: the delta path spreads columns only
// before an edit's first σ write (growVertex) and after its last
// (refreshIrredundant).
func (s *spread) of(col []sigmaEntry, nA int) []int {
	if len(col) > 0 && len(s.col) == len(col) && &s.col[0] == &col[0] {
		return s.row[:nA]
	}
	s.clear()
	if len(s.row) < nA {
		s.row = make([]int, nA)
		for i := range s.row {
			s.row[i] = NoOffset
		}
	}
	for _, e := range col {
		s.row[e.ai] = e.off
	}
	s.col = col
	return s.row[:nA]
}

// clear puts the row back to NoOffset everywhere.
func (s *spread) clear() {
	for _, e := range s.col {
		s.row[e.ai] = NoOffset
	}
	s.col = nil
}

// anchorRow returns the row function of the domination test for next's
// σ columns: each anchor's column spread in lq.
func (sc *deltaScratch) anchorRow(next *Schedule) func(q int) []int {
	nA := len(next.Info.List)
	return func(q int) []int { return sc.lq.of(next.cols.col(q), nA) }
}

// appendCol adds the column of a new last vertex to next's σ table. The
// last chunk of headers grows like the analysis tables (see growVertex);
// grown in place, it stays shared below its old length, so the edit does
// not own it.
func (sc *deltaScratch) appendCol(next *Schedule, col []sigmaEntry) {
	t := &next.cols
	t.chunks = own(t.chunks, &sc.owned.cols)
	k := t.n >> sigmaChunkBits
	if k == len(t.chunks) {
		t.chunks = append(t.chunks, [][]sigmaEntry{col})
		sc.ownedChunks[k] = true
	} else {
		t.chunks[k], sc.ownedChunks[k] = grow(t.chunks[k], col, next.room)
	}
	t.n++
}

// Apply applies the edits to the schedule's graph in order and returns a
// new schedule for the edited graph, leaving the receiver untouched. The
// receiver must be the newest schedule of its graph (ErrStaleSchedule
// otherwise). On error — a structural rejection from cg.ApplyEdit, an
// *IllPosedError, ErrUnfeasible, ErrInconsistent, or an
// *AnchorDriftError — every edit already applied to the graph is
// reverted and the receiver remains the graph's valid schedule.
//
// Additions cost O(cone): one copied σ column per vertex whose offsets
// move, plus work proportional to the vertices whose offsets or anchor
// sets actually change. Removals re-derive, over the removed edge's cone,
// the offsets of the anchors whose longest paths took the edge. A bounded
// vertex insertion costs one column of pred's defined offsets and, unless
// its chain has room left in the analysis tables, O(|V|) of table headers,
// on top of the addition of its x→succ edge. Hooks carry over from the
// base schedule, so incremental re-schedules are traced exactly like the
// cold compute that produced the base.
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

// derive returns the schedule an edit of s starts from: it shares every
// table of s, and the edit copies each table before its first write to
// it, so s stays valid for its readers. Call it after the graph edit, so
// the new schedule carries the new generation.
// The claim on the room past the ends of s's analysis tables passes to the
// derived schedule (see Schedule.room); a schedule without it, such as a
// cached cold one, is not written.
func (s *Schedule) derive() *Schedule {
	info := *s.Info
	next := &Schedule{
		G: s.G, Info: &info, Iterations: s.Iterations,
		cols: s.cols, hooks: s.hooks, gen: s.G.Generation(), room: s.room,
	}
	if s.room {
		s.room = false
	}
	return next
}

// applyInsert splices a bounded operation x between pred and succ by
// Lemma 8 warm start: x's entries in every per-vertex table come from
// pred (growVertex), then the x→succ edge is re-scheduled as a constraint
// addition. A bounded insert cannot change the anchor list, so nothing
// is re-analyzed. An unbounded-delay insert is rejected with
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
	next := s.derive()
	sc := newDeltaScratch(g.N())
	defer sc.release()
	next.growVertex(sc, d.Edge)
	if err := next.addEdge(sc, g.Edge(d.EdgeIndex+1), d.EdgeIndex+1); err != nil {
		return revertAfter(g, d, err)
	}
	s.hooks.relaxationSweep(1)
	s.hooks.readjustment(0)
	return next, d, nil
}

// growVertex extends every per-vertex table by the vertex x that pe
// (pred→x, x's only in-edge so far) leads into. Every path to x ends with
// pe, so σ(x) = σ(pred) + w(pe) per anchor (Theorem 3); A(x) is A(pred),
// plus pred itself across an unbounded edge (Definition 4); R(x) is R(pred)
// across a bounded edge, or {pred} across an unbounded one — a defining
// path's only unbounded edge is its first (Definitions 8–9). IR(x) then
// follows from the new column (Definition 11). No other vertex's entries
// change until the x→succ edge is added. x's column costs O(entries at
// pred). The set tables and the last chunk of σ headers grow in place
// when next holds the claim on the room past their ends (Schedule.room);
// otherwise each is copied once, at O(|V|) header cost, into an array
// with room for the inserts after it.
func (next *Schedule) growVertex(sc *deltaScratch, pe cg.Edge) {
	info := next.Info
	nA := len(info.List)
	x := next.cols.n
	w := pe.MinWeight()
	pc := next.cols.col(int(pe.From))
	col := make([]sigmaEntry, len(pc))
	for k, e := range pc {
		col[k] = sigmaEntry{e.ai, e.off + w}
	}
	sc.appendCol(next, col)
	full := info.Full[pe.From].Clone()
	rel := bitset.New(nA)
	if pe.Unbounded {
		full.Add(info.Index[pe.From])
		rel.Add(info.Index[pe.From])
	} else {
		rel.CopyFrom(info.Relevant[pe.From])
	}
	ir := bitset.New(nA)
	info.Full, sc.owned.full = grow(info.Full, full, next.room)
	info.Relevant, sc.owned.relevant = grow(info.Relevant, rel, next.room)
	info.Irredundant, sc.owned.irredundant = grow(info.Irredundant, ir, next.room)
	next.room = true
	info.irredundantAt(x, sc.lv.of(col, nA), sc.anchorRow(next), ir, nil)
}

// applyAddition is the hot path: a constraint addition re-scheduled by
// Lemma 8 warm start (addEdge).
func (s *Schedule) applyAddition(ed cg.Edit) (*Schedule, cg.Delta, error) {
	g := s.G
	d, err := g.ApplyEdit(ed)
	if err != nil {
		return nil, cg.Delta{}, err
	}
	next := s.derive()
	sc := newDeltaScratch(g.N())
	defer sc.release()
	if err := next.addEdge(sc, d.Edge, d.EdgeIndex); err != nil {
		return revertAfter(g, d, err)
	}
	s.hooks.relaxationSweep(1)
	s.hooks.readjustment(0)
	return next, d, nil
}

// addEdge re-schedules next for the edge e (stored orientation: backward
// for a maximum constraint) just added to its graph at index ei. The
// offsets next holds are valid lower bounds for the edited graph (Lemma
// 8), so relaxing a raise-only worklist outward from the new edge
// converges to the new minimum schedule, touching only the cone the edit
// actually moves. The error is an *IllPosedError, ErrUnfeasible or
// ErrInconsistent.
func (next *Schedule) addEdge(sc *deltaScratch, e cg.Edge, ei int) error {
	g := next.G
	info := next.Info

	// Anchor-set maintenance and the Theorem 2 containment re-check. A
	// forward edge grows Full sets downstream of the head; a backward
	// edge changes no Full set but brings one containment obligation of
	// its own.
	var changedFull []int
	if e.Kind.Forward() {
		changedFull = info.growFull(sc, e)
		for _, v := range changedFull {
			for _, bi := range g.OutEdges(cg.VertexID(v)) {
				be := g.Edge(int(bi))
				if be.Kind.Forward() {
					continue
				}
				if !info.Full[be.From].SubsetOf(info.Full[be.To]) {
					return illPosed(info, int(bi), be)
				}
			}
		}
	} else if !info.Full[e.From].SubsetOf(info.Full[e.To]) {
		return illPosed(info, ei, e)
	}

	// Warm-started relaxation over the affected anchors: those with an
	// offset at the edit's tail. Everywhere else the base fixpoint is
	// untouched by the new edge. A raise that reaches the tail ends the
	// edit with an error, so the tail's column stays as the loop read it.
	w := e.MinWeight()
	wlp := stackPool.Get().(*[]int)
	defer stackPool.Put(wlp)
	for _, p := range next.cols.col(int(e.From)) {
		ai, f := p.ai, p.off
		if f+w <= next.cols.at(int(e.To), ai) {
			continue
		}
		sc.set(next, int(e.To), ai, f+w)
		wl, overflow, err := next.relaxWorklist(sc, ai, int(e.From), append((*wlp)[:0], int(e.To)))
		*wlp = wl
		if err != nil {
			return err
		}
		if overflow {
			// Classic warm-started sweeps: the partial raises are valid
			// lower bounds, so convergence or the Theorem 8 bound still
			// decides.
			if err := next.solveWarm(sc, ai); err != nil {
				return next.classify(err)
			}
		}
	}

	info.growRelevant(sc, e)
	next.refreshIrredundant(sc, changedFull, true)
	return nil
}

// applyRemoval removes a constraint edge. Offsets may decrease, so Lemma
// 8's warm start does not apply; instead the recompute is restricted to
// the removal cone R — the vertices reachable from the removed edge's
// head along stored-orientation edges of any kind. Constraint effects
// propagate only along stored directions (forward relaxations and
// backward readjustments both push values From → To), so longest paths
// and relevance are unchanged outside R, and R is closed under out-edges
// — no value inside ever feeds one outside. Each affected anchor (those
// for which the edge is tight) has its offsets re-derived over R only,
// against the frozen boundary of base values on in-edges from outside R.
// Cost is O(|affected| · |R| · iterations) plus one O(V) topo filter — an
// edit near the sink of a large graph re-schedules in microseconds.
func (s *Schedule) applyRemoval(ed cg.Edit) (*Schedule, cg.Delta, error) {
	g := s.G
	if ed.EdgeIndex < 0 || ed.EdgeIndex >= g.M() {
		return nil, cg.Delta{}, fmt.Errorf("cg: edge index %d out of range [0,%d)", ed.EdgeIndex, g.M())
	}
	e := g.Edge(ed.EdgeIndex)
	// Only anchors for which the edge is tight can lose offsets: a longest
	// walk never takes a slack edge (its prefix up to the edge's head
	// would not be longest), so where σ_a(tail) + w < σ_a(head) every
	// offset of a, and every vertex a reaches, survives without the edge.
	var affected []int
	for _, p := range s.cols.col(int(e.From)) {
		if p.off+e.MinWeight() == s.cols.at(int(e.To), p.ai) {
			affected = append(affected, p.ai)
		}
	}
	d, err := g.ApplyEdit(ed)
	if err != nil {
		return nil, cg.Delta{}, err
	}

	next := s.derive()
	info := next.Info
	sc := newDeltaScratch(g.N())
	defer sc.release()

	// Full sets shrink only downstream of a removed forward edge;
	// re-derive them over the head's forward cone in topological order,
	// then re-check containment (Theorem 2) for backward edges into the
	// shrunk vertices — removing a serialization edge can re-expose
	// ill-posedness.
	var changedFull []int
	if e.Kind.Forward() {
		changedFull = info.shrinkFull(sc, int(e.To))
		for _, v := range changedFull {
			for _, ei := range g.InEdges(cg.VertexID(v)) {
				be := g.Edge(int(ei))
				if be.Kind.Forward() {
					continue
				}
				if !info.Full[be.From].SubsetOf(info.Full[be.To]) {
					return revertAfter(g, d, illPosed(info, int(ei), be))
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
			if oe := g.Edge(int(ei)); !inR[oe.To] {
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
	for ei, be := range g.Edges() {
		if !be.Kind.Forward() && inR[be.To] {
			bwdR = append(bwdR, ei)
		}
	}

	// Re-derive each affected anchor's offsets over R: seed the cold
	// values (0 at the anchor itself, NoOffset elsewhere in R), then
	// iterate restricted forward passes and backward readjustments until
	// convergence, reading base offsets across the boundary of R.
	// Removing a constraint from a consistent system keeps it consistent,
	// but the Theorem 8 bound guards regardless. Only entries that come
	// out different are written, so unmoved vertices keep sharing the base
	// columns.
	vals := sc.vals
	maxIter := len(bwdR) + 1
	at := func(u cg.VertexID, ai int) int {
		if inR[u] {
			return vals[u]
		}
		return s.cols.at(int(u), ai)
	}
	for _, ai := range affected {
		for _, v := range sc.rList {
			vals[v] = NoOffset
		}
		if a := info.List[ai]; inR[a] {
			vals[a] = 0
		}
		converged := false
		iters := 0
		for iter := 1; iter <= maxIter; iter++ {
			iters = iter
			for _, v := range sc.topoR {
				best := vals[v]
				for _, ei := range g.InEdges(cg.VertexID(v)) {
					ie := g.Edge(int(ei))
					if !ie.Kind.Forward() {
						continue
					}
					f := at(ie.From, ai)
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
				f := at(be.From, ai)
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
			return revertAfter(g, d, next.classify(ErrInconsistent))
		}
		if iters > next.Iterations {
			next.Iterations = iters
		}
		for _, v := range sc.rList {
			if vals[v] != s.cols.at(v, ai) {
				sc.set(next, v, ai, vals[v])
			}
		}
	}
	s.hooks.relaxationSweep(next.Iterations)

	// Relevance can change only inside R: a defining path through the
	// removed edge continues from its head, so every vertex it marks past
	// the edit is in R. Re-derive R members from their in-edges — direct
	// unbounded edges contribute the tail anchor, bounded boundary edges
	// contribute the (unchanged) base sets — then propagate across bounded
	// edges inside R to the monotone fixpoint, mirroring relevantAnchors'
	// dataflow (a defining path never revisits its own anchor).
	nAbits := len(info.List)
	relNew := make(map[int]bitset.Set, len(sc.rList))
	for _, v := range sc.rList {
		set := bitset.New(nAbits)
		for _, ei := range g.InEdges(cg.VertexID(v)) {
			ie := g.Edge(int(ei))
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
			oe := g.Edge(int(ei))
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
	for _, v := range sc.rList {
		if relNew[v].Equal(info.Relevant[v]) {
			continue
		}
		info.Relevant = own(info.Relevant, &sc.owned.relevant)
		info.Relevant[v] = relNew[v]
	}

	next.refreshIrredundant(sc, changedFull, false)

	s.hooks.readjustment(0)
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

// relaxWorklist drains the raise-only worklist for one anchor: pop a
// raised vertex, relax its out-edges (forward and backward alike), push
// heads that rose. Raises are justified by real paths from valid lower
// bounds, so the drained fixpoint is the anchor's new minimum schedule.
// Every raised value is σ(tail) + w(e) plus the length of a walk from the
// new edge's head, so a raise that reaches tail — the new edge's own tail
// — closes a positive cycle through the edge: the edit is unfeasible
// (Theorem 1, ErrUnfeasible) and the drain stops there. overflow reports
// that the raise budget ran out (a pathological but consistent cascade)
// — the caller falls back to the bounded sweep loop.
func (next *Schedule) relaxWorklist(sc *deltaScratch, ai, tail int, wl []int) (stack []int, overflow bool, err error) {
	g := next.G
	budget := deltaRaiseSlack + 4*g.M()
	for len(wl) > 0 {
		v := cg.VertexID(wl[len(wl)-1])
		wl = wl[:len(wl)-1]
		f := next.cols.at(int(v), ai)
		for _, ei := range g.OutEdges(v) {
			e := g.Edge(int(ei))
			if d := f + e.MinWeight(); d > next.cols.at(int(e.To), ai) {
				if int(e.To) == tail {
					return wl[:0], false, ErrUnfeasible
				}
				sc.set(next, int(e.To), ai, d)
				wl = append(wl, int(e.To))
				if budget--; budget < 0 {
					return wl[:0], true, nil
				}
			}
		}
	}
	return wl, false, nil
}

// solveWarm runs the classic §IV-E sweep/readjust loop for one anchor on
// the adjacency view (the delta path leaves the CSR stale on purpose),
// warm-starting from the anchor's current offsets.
func (next *Schedule) solveWarm(sc *deltaScratch, ai int) error {
	g := next.G
	topo := g.TopoForward()
	bwd := g.BackwardEdges()
	maxIter := len(bwd) + 1
	iters, err := maxIter, ErrInconsistent
	for iter := 1; iter <= maxIter; iter++ {
		for _, v := range topo {
			f := next.cols.at(int(v), ai)
			if f == NoOffset {
				continue
			}
			for _, ei := range g.OutEdges(v) {
				e := g.Edge(int(ei))
				if !e.Kind.Forward() {
					continue
				}
				if d := f + e.MinWeight(); d > next.cols.at(int(e.To), ai) {
					sc.set(next, int(e.To), ai, d)
				}
			}
		}
		raised := 0
		for _, ei := range bwd {
			e := g.Edge(ei)
			f := next.cols.at(int(e.From), ai)
			if f == NoOffset {
				continue
			}
			if d := f + e.Weight; d > next.cols.at(int(e.To), ai) {
				sc.set(next, int(e.To), ai, d)
				raised++
			}
		}
		if raised == 0 {
			iters, err = iter, nil
			break
		}
	}
	if iters > next.Iterations {
		next.Iterations = iters
	}
	next.hooks.relaxationSweep(next.Iterations)
	return err
}

// growFull merges the new forward edge's contribution — the tail's
// anchor set, plus the tail itself for an unbounded edge — into the
// head's forward cone, copy-on-write. Full sets are monotone along
// forward edges, so propagation stops wherever the contribution is
// already contained. Returns the vertices whose sets grew.
func (info *AnchorInfo) growFull(sc *deltaScratch, e cg.Edge) []int {
	g := info.G
	add := info.Full[e.From]
	if e.Unbounded {
		add = add.Clone()
		add.Add(info.Index[e.From])
	}
	if add.SubsetOf(info.Full[e.To]) {
		return nil
	}
	info.Full = own(info.Full, &sc.owned.full)
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
			if oe := g.Edge(int(ei)); oe.Kind.Forward() {
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
func (info *AnchorInfo) shrinkFull(sc *deltaScratch, head int) []int {
	g := info.G
	cone := make([]bool, g.N())
	flood := []int{head}
	cone[head] = true
	for k := 0; k < len(flood); k++ {
		for _, ei := range g.OutEdges(cg.VertexID(flood[k])) {
			if e := g.Edge(int(ei)); e.Kind.Forward() && !cone[e.To] {
				cone[e.To] = true
				flood = append(flood, int(e.To))
			}
		}
	}
	var changed []int
	scratch := bitset.New(len(info.List))
	for _, v := range g.TopoForward() {
		if !cone[v] {
			continue
		}
		scratch.Clear()
		for _, ei := range g.InEdges(v) {
			e := g.Edge(int(ei))
			if !e.Kind.Forward() {
				continue
			}
			scratch.UnionWith(info.Full[e.From])
			if e.Unbounded {
				scratch.Add(info.Index[e.From])
			}
		}
		if scratch.Equal(info.Full[v]) {
			continue
		}
		info.Full = own(info.Full, &sc.owned.full)
		info.Full[v] = scratch.Clone()
		changed = append(changed, int(v))
	}
	return changed
}

// growRelevant propagates the relevant-anchor contribution of a new edge
// (Definitions 8–9), copy-on-write. A bounded edge carries the tail's
// relevant set across; an unbounded edge starts defining paths for the
// tail anchor itself. Propagation follows bounded edges of any kind,
// never adds an anchor to its own set (defining paths leave the anchor,
// they do not revisit it), and stops where nothing is new — the same
// dataflow relevantAnchors floods from scratch.
func (info *AnchorInfo) growRelevant(sc *deltaScratch, e cg.Edge) {
	g := info.G
	var gain bitset.Set
	if e.Unbounded {
		gain = bitset.New(len(info.List))
		gain.Add(info.Index[e.From])
	} else {
		gain = info.Relevant[e.From]
	}
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
		info.Relevant = own(info.Relevant, &sc.owned.relevant)
		ns := info.Relevant[it.v].Clone()
		ns.UnionWith(m)
		info.Relevant[it.v] = ns
		for _, ei := range g.OutEdges(cg.VertexID(it.v)) {
			if oe := g.Edge(int(ei)); !oe.Unbounded {
				stack = append(stack, item{int(oe.To), m})
			}
		}
	}
}

// refreshIrredundant re-derives the irredundant sets (Definition 11) an
// edit could have changed. The test at v reads A(v), v's σ column, and
// A(q) and σ(q) of every anchor q ∈ A(v), so IR(v) is re-run in full at
// vertices whose column or full set changed, and re-checked at every
// vertex whose set holds an anchor whose column or full set changed.
// There v's own inputs are unchanged, and the edit moved the others one
// way: an addition (grow) only raises offsets and grows full sets, so a
// domination can only appear, and only through a changed anchor — the
// re-check drops what such an anchor now dominates; a removal only lowers
// them and shrinks sets, so a domination can only vanish — the re-check
// re-admits the redundant anchors nothing dominates any more. Sets that
// come out unchanged keep sharing the base storage.
func (next *Schedule) refreshIrredundant(sc *deltaScratch, changedFull []int, grow bool) {
	info := next.Info
	ts := &sc.touched
	nA := len(info.List)
	changed := bitset.New(nA)
	for ai, a := range info.List {
		if ts.mark[a] {
			changed.Add(ai)
		}
	}
	for _, v := range changedFull {
		if ai, ok := info.Index[cg.VertexID(v)]; ok {
			changed.Add(ai)
		}
	}
	scratch := bitset.New(nA)
	var buf []int
	store := func(v int, ir bitset.Set) {
		info.Irredundant = own(info.Irredundant, &sc.owned.irredundant)
		info.Irredundant[v] = ir
	}
	row := sc.anchorRow(next)
	redo := func(v int) {
		buf = info.irredundantAt(v, sc.lv.of(next.cols.col(v), nA), row, scratch, buf)
		if !scratch.Equal(info.Irredundant[v]) {
			store(v, scratch)
			scratch = bitset.New(nA)
		}
	}
	// The recompute is idempotent and Equal-guarded, so overlap between
	// the candidate lists is harmless — no dedup pass needed.
	for _, v := range changedFull {
		redo(v)
	}
	for _, v := range ts.list {
		redo(v)
	}
	if changed.Empty() {
		return
	}
	// One O(V) scan for the vertices that see a changed anchor.
	var xs, qs []int
	for v := 0; v < next.cols.n; v++ {
		if ts.mark[v] || !info.Full[v].Intersects(changed) {
			continue
		}
		cur := info.Irredundant[v]
		lv := sc.lv.of(next.cols.col(v), nA)
		if grow {
			// Drop what a changed anchor now dominates.
			xs = cur.AppendTo(xs[:0])
			qs = qs[:0]
			changed.ForEach(func(qi int) {
				if info.Full[v].Has(qi) {
					qs = append(qs, qi)
				}
			})
			scratch.CopyFrom(cur)
			info.dropDominated(v, lv, row, xs, qs, scratch)
			if !scratch.Equal(cur) {
				store(v, scratch)
				scratch = bitset.New(nA)
			}
			continue
		}
		// Re-admit the redundant anchors nothing dominates any more.
		scratch.CopyFrom(info.Full[v])
		cur.ForEach(scratch.Remove)
		xs = scratch.AppendTo(xs[:0])
		qs = info.Full[v].AppendTo(qs[:0])
		info.dropDominated(v, lv, row, xs, qs, scratch)
		if !scratch.Empty() {
			scratch.UnionWith(cur)
			store(v, scratch)
			scratch = bitset.New(nA)
		}
	}
}

// Fork returns a schedule equivalent to s whose graph is a private
// frozen clone, sharing the (copy-on-write, never-mutated) σ columns and
// analysis sets. Apply mutates the schedule's graph in place, so
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
		cols: s.cols, hooks: s.hooks,
		gen: g2.Generation(),
	}, nil
}

// Generation returns the graph generation this schedule describes; it
// matches G.Generation() exactly when the schedule is the newest in its
// delta chain (the only one Apply accepts).
func (s *Schedule) Generation() uint64 { return s.gen }
