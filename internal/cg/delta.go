package cg

import (
	"errors"
	"fmt"
	"sort"
)

// This file is the graph half of the reactive delta layer (see
// docs/INCREMENTAL.md). A frozen graph normally rejects mutation, because
// its Freeze-time caches (topological order, anchor list, CSR) would go
// stale. ApplyEdit is the sanctioned exception: it validates an Edit
// against the structural invariants Freeze enforces (forward acyclicity,
// polarity), applies it, and repairs the caches incrementally —
// Pearce–Kelly reordering for the topological order, append/patch for the
// anchor list, and a lazy-rebuild flag for the CSR — instead of
// re-freezing. The adjacency a frozen graph keeps is int32 CSR, which
// cannot grow in place, so the first edit carves per-vertex list headers
// over its index arrays (Graph.lists) and every edit then appends to,
// drops from or rewrites those lists. Every successful edit returns a Delta record that
// RevertDelta can undo in strict LIFO order, which is what gives the
// scheduling layer transactional edits: any failure after the graph
// mutation reverts it, so callers never observe a half-applied edit.

// EditOp enumerates the graph edits the delta layer understands.
type EditOp int

const (
	// EditAddMin adds a minimum timing constraint (forward edge, Table I).
	EditAddMin EditOp = iota
	// EditAddMax adds a maximum timing constraint (backward edge, Table I).
	EditAddMax
	// EditAddSerialization adds a MakeWellPosed-style serialization edge
	// from an anchor.
	EditAddSerialization
	// EditRemoveEdge removes a constraint edge by index. Sequencing edges
	// are structural and cannot be removed.
	EditRemoveEdge
	// EditInsertOp inserts a new operation vertex serialized between two
	// existing vertices by sequencing edges.
	EditInsertOp
)

// String names the edit operation.
func (op EditOp) String() string {
	switch op {
	case EditAddMin:
		return "add_min"
	case EditAddMax:
		return "add_max"
	case EditAddSerialization:
		return "add_serialization"
	case EditRemoveEdge:
		return "remove_edge"
	case EditInsertOp:
		return "insert_op"
	}
	return fmt.Sprintf("EditOp(%d)", int(op))
}

// Edit describes one requested graph edit. Build edits with the
// constructor functions (AddMinEdit, AddMaxEdit, AddSerializationEdit,
// RemoveEdgeEdit, InsertOpEdit); the zero value is not a valid edit.
type Edit struct {
	Op EditOp
	// From and To are the constraint endpoints in user orientation: a
	// minimum constraint σ(To) ≥ σ(From)+Weight, a maximum constraint
	// σ(To) ≤ σ(From)+Weight, or a serialization From→To. Note that a
	// maximum constraint is stored as the backward edge (To, From) of
	// weight -Weight, exactly as AddMax stores it.
	From, To VertexID
	Weight   int
	// EdgeIndex selects the edge for EditRemoveEdge.
	EdgeIndex int
	// Name, Delay, Pred, Succ describe the vertex for EditInsertOp.
	Name       string
	Delay      Delay
	Pred, Succ VertexID
}

// AddMinEdit returns the edit adding a minimum timing constraint
// σ(to) ≥ σ(from) + l.
func AddMinEdit(from, to VertexID, l int) Edit {
	return Edit{Op: EditAddMin, From: from, To: to, Weight: l}
}

// AddMaxEdit returns the edit adding a maximum timing constraint
// σ(to) ≤ σ(from) + u.
func AddMaxEdit(from, to VertexID, u int) Edit {
	return Edit{Op: EditAddMax, From: from, To: to, Weight: u}
}

// AddSerializationEdit returns the edit adding a serialization edge from
// anchor a to vertex v (the edge MakeWellPosed adds, Theorem 7).
func AddSerializationEdit(a, v VertexID) Edit {
	return Edit{Op: EditAddSerialization, From: a, To: v}
}

// RemoveEdgeEdit returns the edit removing the constraint edge at index i
// (as reported by Graph.Edges / Graph.Edge). Removal uses swap-with-last,
// so the index of the previously-last edge changes; resolve indices
// against the current graph immediately before applying.
func RemoveEdgeEdit(i int) Edit {
	return Edit{Op: EditRemoveEdge, EdgeIndex: i}
}

// InsertOpEdit returns the edit inserting a new operation vertex with the
// given name and delay, serialized after pred and before succ by
// sequencing edges pred→v and v→succ.
func InsertOpEdit(name string, d Delay, pred, succ VertexID) Edit {
	return Edit{Op: EditInsertOp, Name: name, Delay: d, Pred: pred, Succ: succ}
}

// Delta records one applied edit: everything RevertDelta needs to undo it
// and everything the scheduling layer needs to re-schedule incrementally.
type Delta struct {
	Op EditOp
	// Edge is the edge added or removed, in stored orientation (for a
	// maximum constraint, the backward edge). For EditInsertOp it is the
	// pred→v sequencing edge; the v→succ edge sits at EdgeIndex+1.
	Edge Edge
	// EdgeIndex is where the edge lives (additions) or lived (removals).
	EdgeIndex int
	// Moved is the former index of the edge swapped into EdgeIndex by a
	// removal, or -1 when the removed edge was last (or for other ops).
	Moved int
	// Vertex is the vertex inserted by EditInsertOp, else None.
	Vertex VertexID
	// Gen is the graph generation after the edit; RevertDelta demands it
	// still be current, which enforces strict LIFO undo.
	Gen uint64
}

var (
	// ErrNotFrozen reports ApplyEdit on a graph that was never frozen;
	// before Freeze the ordinary mutators (AddMin, AddMax, ...) apply.
	ErrNotFrozen = errors.New("cg: ApplyEdit requires a frozen graph")
	// ErrEditPolarity reports an edge removal that would leave a vertex
	// with no forward in-edge or no forward out-edge, breaking the polar
	// structure §III requires (every vertex on a source→sink path).
	ErrEditPolarity = errors.New("cg: edit would break graph polarity")
	// ErrEditStructural reports an attempt to remove a sequencing edge;
	// dependencies are part of the operation structure, not constraints,
	// and the delta layer refuses to drop them.
	ErrEditStructural = errors.New("cg: sequencing edges are structural and cannot be removed")
	// ErrRevertOrder reports RevertDelta called with a delta that is not
	// the graph's most recent edit; deltas undo in strict LIFO order.
	ErrRevertOrder = errors.New("cg: RevertDelta out of order (deltas undo newest-first)")
)

// ApplyEdit applies one edit to a frozen graph, maintaining the
// Freeze-time caches incrementally: the topological order is repaired
// with a bounded Pearce–Kelly reorder on forward-edge insertion, the
// anchor list is patched on vertex insertion, and the CSR view is marked
// stale for lazy rebuild (see CSR). On error the graph is untouched. On
// success the generation advances and the returned Delta can undo the
// edit via RevertDelta.
func (g *Graph) ApplyEdit(ed Edit) (Delta, error) {
	if !g.frozen {
		return Delta{}, ErrNotFrozen
	}
	if g.topoPos == nil {
		g.buildRanks()
	}
	switch ed.Op {
	case EditAddMin:
		if err := g.checkEndpoints(ed.From, ed.To); err != nil {
			return Delta{}, err
		}
		if ed.Weight < 0 {
			return Delta{}, fmt.Errorf("cg: negative minimum constraint %d", ed.Weight)
		}
		e := Edge{From: ed.From, To: ed.To, Kind: MinConstraint, Weight: ed.Weight}
		i, err := g.insertForwardEdge(e)
		if err != nil {
			return Delta{}, err
		}
		g.editBump()
		return Delta{Op: ed.Op, Edge: e, EdgeIndex: i, Moved: -1, Vertex: None, Gen: g.generation}, nil

	case EditAddMax:
		if err := g.checkEndpoints(ed.From, ed.To); err != nil {
			return Delta{}, err
		}
		if ed.Weight < 0 {
			return Delta{}, fmt.Errorf("cg: negative maximum constraint %d", ed.Weight)
		}
		// Stored orientation per Table I: backward edge (to, from) of
		// weight -u. Backward edges never touch the topological order.
		e := Edge{From: ed.To, To: ed.From, Kind: MaxConstraint, Weight: -ed.Weight}
		i := g.addEdge(e)
		g.editBump()
		return Delta{Op: ed.Op, Edge: e, EdgeIndex: i, Moved: -1, Vertex: None, Gen: g.generation}, nil

	case EditAddSerialization:
		if err := g.checkEndpoints(ed.From, ed.To); err != nil {
			return Delta{}, err
		}
		if g.vertices[ed.From].Delay.Bounded() {
			return Delta{}, fmt.Errorf("cg: serialization from bounded-delay vertex %d", ed.From)
		}
		e := Edge{From: ed.From, To: ed.To, Kind: Serialization, Unbounded: true}
		i, err := g.insertForwardEdge(e)
		if err != nil {
			return Delta{}, err
		}
		g.editBump()
		return Delta{Op: ed.Op, Edge: e, EdgeIndex: i, Moved: -1, Vertex: None, Gen: g.generation}, nil

	case EditRemoveEdge:
		return g.applyRemove(ed)

	case EditInsertOp:
		return g.applyInsertOp(ed)
	}
	return Delta{}, fmt.Errorf("cg: unknown edit op %v", ed.Op)
}

func (g *Graph) checkEndpoints(from, to VertexID) error {
	n := VertexID(len(g.vertices))
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("cg: edit endpoints (%d, %d) out of range [0,%d)", from, to, n)
	}
	if from == to {
		return fmt.Errorf("cg: self edge on %d", from)
	}
	return nil
}

// insertForwardEdge adds a forward edge, rejecting forward cycles before
// mutating and repairing the topological order with the Pearce–Kelly
// two-cone reorder when the new edge violates it. Work is bounded by the
// affected region — the vertices whose ranks lie between the edge's
// endpoints — not the graph size.
func (g *Graph) insertForwardEdge(e Edge) (int, error) {
	t, h := e.From, e.To
	if g.topoPos[t] < g.topoPos[h] {
		// Order already accommodates the edge; no cycle is possible
		// (a path h→…→t would force rank[h] < rank[t]).
		return g.addEdge(e), nil
	}
	lo, hi := g.topoPos[h], g.topoPos[t]
	deltaF, cyclic := g.forwardCone(h, t, hi)
	if cyclic {
		return 0, fmt.Errorf("%w: adding %v→%v", ErrForwardCycle, t, h)
	}
	deltaB := g.backwardCone(t, lo)
	g.reorder(deltaB, deltaF)
	return g.addEdge(e), nil
}

// forwardCone collects the vertices forward-reachable from start whose
// rank is at most hi, reporting cyclic=true if target is among them.
func (g *Graph) forwardCone(start, target VertexID, hi int32) ([]VertexID, bool) {
	visited := map[VertexID]bool{start: true}
	stack := []VertexID{start}
	cone := []VertexID{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == target {
			return nil, true
		}
		for _, i := range g.OutEdges(v) {
			e := &g.edges[i]
			if !e.Kind.Forward() {
				continue
			}
			w := e.To
			if visited[w] || g.topoPos[w] > hi {
				continue
			}
			visited[w] = true
			cone = append(cone, w)
			stack = append(stack, w)
		}
	}
	return cone, false
}

// backwardCone collects the vertices that reach start along forward
// edges with rank at least lo.
func (g *Graph) backwardCone(start VertexID, lo int32) []VertexID {
	visited := map[VertexID]bool{start: true}
	stack := []VertexID{start}
	cone := []VertexID{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range g.InEdges(v) {
			e := &g.edges[i]
			if !e.Kind.Forward() {
				continue
			}
			w := e.From
			if visited[w] || g.topoPos[w] < lo {
				continue
			}
			visited[w] = true
			cone = append(cone, w)
			stack = append(stack, w)
		}
	}
	return cone
}

// reorder reassigns the rank slots occupied by the two cones so every
// ancestor-side vertex (deltaB) precedes every descendant-side vertex
// (deltaF), preserving relative order within each cone (Pearce–Kelly).
func (g *Graph) reorder(deltaB, deltaF []VertexID) {
	byRank := func(s []VertexID) {
		sort.Slice(s, func(i, j int) bool { return g.topoPos[s[i]] < g.topoPos[s[j]] })
	}
	byRank(deltaB)
	byRank(deltaF)
	slots := make([]int32, 0, len(deltaB)+len(deltaF))
	for _, v := range deltaB {
		slots = append(slots, g.topoPos[v])
	}
	for _, v := range deltaF {
		slots = append(slots, g.topoPos[v])
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	seq := append(deltaB, deltaF...)
	for k, v := range seq {
		r := slots[k]
		g.topo[r] = v
		g.topoPos[v] = r
	}
}

// applyRemove removes a constraint edge with swap-with-last, guarding the
// structural invariants: sequencing edges are irremovable, and a forward
// edge may only go if its head keeps another forward in-edge and its tail
// another forward out-edge (which, in a polar forward DAG, is exactly the
// condition for polarity to survive: the source remains the unique vertex
// without forward predecessors and the sink the unique vertex without
// forward successors).
func (g *Graph) applyRemove(ed Edit) (Delta, error) {
	i := ed.EdgeIndex
	if i < 0 || i >= len(g.edges) {
		return Delta{}, fmt.Errorf("cg: edge index %d out of range [0,%d)", i, len(g.edges))
	}
	e := g.edges[i]
	if e.Kind == Sequencing {
		return Delta{}, fmt.Errorf("%w: edge %d (%v)", ErrEditStructural, i, e)
	}
	if e.Kind.Forward() {
		if g.countForward(g.InEdges(e.To)) < 2 {
			return Delta{}, fmt.Errorf("%w: %v is the last forward edge into %d", ErrEditPolarity, e, e.To)
		}
		if g.countForward(g.OutEdges(e.From)) < 2 {
			return Delta{}, fmt.Errorf("%w: %v is the last forward edge out of %d", ErrEditPolarity, e, e.From)
		}
	}
	moved := g.removeEdgeAt(i)
	g.editBump()
	return Delta{Op: ed.Op, Edge: e, EdgeIndex: i, Moved: moved, Vertex: None, Gen: g.generation}, nil
}

func (g *Graph) countForward(idx []int32) int {
	n := 0
	for _, i := range idx {
		if g.edges[i].Kind.Forward() {
			n++
		}
	}
	return n
}

// removeEdgeAt unlinks edge i and swaps the last edge into its slot,
// returning the former index of the swapped edge (-1 if i was last).
// The topological order stays valid: removals only relax it.
func (g *Graph) removeEdgeAt(i int) int {
	g.lists()
	e := g.edges[i]
	g.out[e.From] = dropVal(g.out[e.From], int32(i))
	g.in[e.To] = dropVal(g.in[e.To], int32(i))
	last := len(g.edges) - 1
	moved := -1
	if i != last {
		m := g.edges[last]
		g.edges[i] = m
		replaceVal(g.out[m.From], int32(last), int32(i))
		replaceVal(g.in[m.To], int32(last), int32(i))
		moved = last
	}
	g.edges = g.edges[:last]
	return moved
}

// applyInsertOp appends a new operation vertex and serializes it between
// pred and succ. The new vertex takes the rank right after pred in the
// topological order — an O(V) shift of the rank array, no graph
// traversal — so the pred→v edge never needs repair, and the v→succ edge
// needs the usual Pearce–Kelly repair only when succ ranks before pred.
func (g *Graph) applyInsertOp(ed Edit) (Delta, error) {
	if err := g.checkEndpoints(ed.Pred, ed.Succ); err != nil {
		return Delta{}, err
	}
	// pred→v→succ closes a forward cycle exactly when succ already
	// reaches pred. Check before mutating.
	if g.topoPos[ed.Succ] < g.topoPos[ed.Pred] {
		if _, cyclic := g.forwardCone(ed.Succ, ed.Pred, g.topoPos[ed.Pred]); cyclic {
			return Delta{}, fmt.Errorf("%w: inserting between %v and %v", ErrForwardCycle, ed.Pred, ed.Succ)
		}
	}
	id := g.addVertex(ed.Name, ed.Delay)
	r := int(g.topoPos[ed.Pred]) + 1
	g.topo = append(g.topo, None)
	copy(g.topo[r+1:], g.topo[r:])
	g.topo[r] = id
	g.topoPos = append(g.topoPos, 0)
	for k := r; k < len(g.topo); k++ {
		g.topoPos[g.topo[k]] = int32(k)
	}
	pd := g.vertices[ed.Pred].Delay
	pe := Edge{From: ed.Pred, To: id, Kind: Sequencing, Weight: pd.Min(), Unbounded: !pd.Bounded()}
	pi := g.addEdge(pe)
	se := Edge{From: id, To: ed.Succ, Kind: Sequencing, Weight: ed.Delay.Min(), Unbounded: !ed.Delay.Bounded()}
	if _, err := g.insertForwardEdge(se); err != nil {
		// Unreachable given the pre-check, but keep the graph whole.
		g.removeEdgeAt(pi)
		g.dropVertex(id)
		return Delta{}, err
	}
	if !ed.Delay.Bounded() && g.anchors != nil {
		g.anchors = append(g.anchors, id)
	}
	g.editBump()
	return Delta{Op: ed.Op, Edge: pe, EdgeIndex: pi, Moved: -1, Vertex: id, Gen: g.generation}, nil
}

// dropVertex removes the last vertex, which must have no edges left, and
// closes its slot in the topological order.
func (g *Graph) dropVertex(id VertexID) {
	r := int(g.topoPos[id])
	copy(g.topo[r:], g.topo[r+1:])
	g.topo = g.topo[:len(g.topo)-1]
	for k := r; k < len(g.topo); k++ {
		g.topoPos[g.topo[k]] = int32(k)
	}
	g.topoPos = g.topoPos[:len(g.topoPos)-1]
	g.vertices = g.vertices[:id]
	g.out = g.out[:id]
	g.in = g.in[:id]
}

// RevertDelta undoes the graph's most recent edit. Deltas revert in
// strict LIFO order — d must carry the graph's current generation — so a
// failed multi-edit transaction unwinds exactly the edits it applied.
// Reversal restores the edge set and topological validity; for removals
// the adjacency-list ordering of the restored edge may differ from the
// original (the edge re-registers at the end of its endpoints' lists),
// which no consumer depends on.
//
// Reversal restores the pre-edit generation (d.Gen − 1) rather than
// advancing it, so schedules keyed on the old generation stay valid
// across a rejected probe. A generation does not identify content,
// though: an edit applied after the revert takes d.Gen again with other
// content. Reversal therefore clears the digest (see SetDigest), as
// every mutation does.
func (g *Graph) RevertDelta(d Delta) error {
	if d.Gen != g.generation {
		return fmt.Errorf("%w: delta gen %d, graph gen %d", ErrRevertOrder, d.Gen, g.generation)
	}
	g.lists()
	switch d.Op {
	case EditAddMin, EditAddMax, EditAddSerialization:
		// The added edge is still last (LIFO guarantee). The topological
		// order remains valid for the smaller edge set.
		g.removeEdgeAt(len(g.edges) - 1)

	case EditRemoveEdge:
		if d.Moved >= 0 {
			// Undo the swap: the edge now at EdgeIndex came from Moved
			// (== the pre-removal last index == current len(edges)).
			m := g.edges[d.EdgeIndex]
			g.edges = append(g.edges, m)
			replaceVal(g.out[m.From], int32(d.EdgeIndex), int32(d.Moved))
			replaceVal(g.in[m.To], int32(d.EdgeIndex), int32(d.Moved))
			g.edges[d.EdgeIndex] = d.Edge
		} else {
			g.edges = append(g.edges, d.Edge)
		}
		g.out[d.Edge.From] = append(g.out[d.Edge.From], int32(d.EdgeIndex))
		g.in[d.Edge.To] = append(g.in[d.Edge.To], int32(d.EdgeIndex))

	case EditInsertOp:
		// Remove the two sequencing edges (appended last) and the vertex.
		g.removeEdgeAt(len(g.edges) - 1)
		g.removeEdgeAt(len(g.edges) - 1)
		id := d.Vertex
		if !g.vertices[id].Delay.Bounded() && g.anchors != nil {
			g.anchors = g.anchors[:len(g.anchors)-1]
		}
		g.dropVertex(id)

	default:
		return fmt.Errorf("cg: unknown delta op %v", d.Op)
	}
	g.generation = d.Gen - 1
	g.clearDigest()
	g.csrDirty = true
	return nil
}

// dropVal removes the first occurrence of x from s, preserving order.
func dropVal(s []int32, x int32) []int32 {
	for k, v := range s {
		if v == x {
			return append(s[:k], s[k+1:]...)
		}
	}
	return s
}

// replaceVal rewrites the first occurrence of old in s to new.
func replaceVal(s []int32, old, new int32) {
	for k, v := range s {
		if v == old {
			s[k] = new
			return
		}
	}
}
