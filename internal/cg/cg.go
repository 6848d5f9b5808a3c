// Package cg implements the polar weighted constraint graph that underlies
// relative scheduling (Ku & De Micheli, "Relative Scheduling Under Timing
// Constraints", DAC 1990).
//
// A constraint graph G(V, E) has one vertex per operation plus a source and
// a sink. Edges come in two families:
//
//   - forward edges model sequencing dependencies (weight = execution delay
//     of the tail operation) and minimum timing constraints (weight = l_ij);
//   - backward edges model maximum timing constraints u_ij as an edge
//     (v_j, v_i) of weight -u_ij.
//
// An operation whose execution delay is unknown at compile time (external
// synchronization, data-dependent iteration) is an unbounded-delay vertex.
// Sequencing edges leaving such a vertex carry an unbounded weight equal to
// the tail's delay δ(v); longest-path computations treat that weight as its
// minimum value 0, while anchor-set computations treat it as the marker
// that propagates the tail as an anchor.
package cg

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// VertexID identifies a vertex within one Graph. IDs are dense: the source
// vertex of a graph is always ID 0 and the remaining vertices are numbered
// in creation order.
type VertexID int

// None is the sentinel returned by queries that can fail to find a vertex.
const None VertexID = -1

// Delay is the execution delay δ(v) of an operation in clock cycles (§II
// of the paper). A delay is
// either bounded (a fixed non-negative cycle count) or unbounded (unknown
// at compile time, taking any value in [0, ∞)).
type Delay struct {
	// c is 0 for an unbounded delay and cycles+1 for a bounded one, so
	// the zero value is unbounded and a Vertex stays at 32 bytes.
	c int
}

// Cycles returns a bounded delay of n cycles. It panics if n is negative,
// since synchronous operations cannot complete before they start.
func Cycles(n int) Delay {
	if n < 0 {
		panic(fmt.Sprintf("cg: negative delay %d", n))
	}
	return Delay{c: n + 1}
}

// UnboundedDelay returns the unbounded execution delay δ ∈ [0, ∞); vertices
// carrying it are the anchors of Definition 2.
func UnboundedDelay() Delay { return Delay{} }

// Bounded reports whether the delay is known at compile time.
func (d Delay) Bounded() bool { return d.c != 0 }

// Value returns the cycle count of a bounded delay. It panics for
// unbounded delays, whose value does not exist at compile time.
func (d Delay) Value() int {
	if d.c == 0 {
		panic("cg: Value on unbounded delay")
	}
	return d.c - 1
}

// Min returns the minimum value the delay can assume: the fixed cycle
// count for bounded delays and 0 for unbounded delays.
func (d Delay) Min() int {
	if d.c == 0 {
		return 0
	}
	return d.c - 1
}

// String renders the delay as a cycle count or "δ" for unbounded.
func (d Delay) String() string {
	if d.c != 0 {
		return fmt.Sprintf("%d", d.c-1)
	}
	return "δ"
}

// Vertex is one operation in the constraint graph — an element of V in the
// paper's G(V, E) model of §III.
type Vertex struct {
	ID    VertexID
	Name  string
	Delay Delay
}

// EdgeKind classifies how an edge entered the constraint graph. The
// classification matches Table I of the paper, plus Serialization for the
// forward edges added by MakeWellPosed. It is one byte, so it shares a
// word of Edge with Unbounded.
type EdgeKind uint8

const (
	// Sequencing is a dependency edge (v_i, v_j) of weight δ(v_i).
	Sequencing EdgeKind = iota
	// MinConstraint is a forward edge (v_i, v_j) of weight l_ij ≥ 0.
	MinConstraint
	// MaxConstraint is a backward edge (v_j, v_i) of weight -u_ij ≤ 0.
	MaxConstraint
	// Serialization is a sequencing edge added by MakeWellPosed to
	// serialize a vertex against an anchor; its weight is δ(anchor).
	Serialization
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case Sequencing:
		return "seq"
	case MinConstraint:
		return "min"
	case MaxConstraint:
		return "max"
	case Serialization:
		return "ser"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// Forward reports whether edges of this kind belong to the forward edge
// set E_f. Backward edges (maximum timing constraints) form E_b.
func (k EdgeKind) Forward() bool { return k != MaxConstraint }

// Edge is a weighted directed edge of the constraint graph — a member of
// E_f or E_b in the §III model; Kind records its Table I origin.
//
// An Edge is 32 bytes: Kind and Unbounded share the last word.
type Edge struct {
	From, To VertexID
	// Weight is the bounded part of the edge weight. For unbounded edges
	// it is ignored in favour of the tail's delay δ(From).
	Weight int
	Kind   EdgeKind
	// Unbounded marks edges whose weight is the unbounded delay δ(From).
	// Longest-path computations use the minimum value 0 for such edges.
	Unbounded bool
}

// MinWeight is the minimum value the edge weight can assume: Weight for
// bounded edges and 0 for unbounded edges.
func (e Edge) MinWeight() int {
	if e.Unbounded {
		return 0
	}
	return e.Weight
}

// String renders the edge for diagnostics.
func (e Edge) String() string {
	w := fmt.Sprintf("%d", e.Weight)
	if e.Unbounded {
		w = "δ"
	}
	return fmt.Sprintf("%d-%s(%s)->%d", e.From, e.Kind, w, e.To)
}

// Graph is a polar weighted directed constraint graph — the G(V, E) model
// of §III — under construction
// or in use. The zero value is not usable; call New.
//
// Graph methods are not safe for concurrent mutation; concurrent read-only
// use after Freeze is safe. Before Freeze, the first read of the adjacency
// lays it out, so a graph under construction has no concurrent readers.
// ApplyEdit and RevertDelta (delta.go) are mutations: they must not
// overlap with each other or with readers that touch the graph's
// structure (see docs/INCREMENTAL.md for the exact reader contract during
// delta application).
type Graph struct {
	vertices []Vertex
	edges    []Edge
	frozen   bool

	// The adjacency, in int32 CSR form: the indices of the edges leaving
	// v are outIdx[outStart[v]:outStart[v+1]], those entering v
	// inIdx[inStart[v]:inStart[v+1]], each in edge-index order. They are
	// nil until first read (see buildAdjacency), so a graph built in one
	// go lays them out once, from the edge list, at 8 bytes per vertex
	// and per edge.
	outStart, outIdx []int32
	inStart, inIdx   []int32

	// out and in are per-vertex list headers, carved over the index
	// arrays by the first mutation after the layout: an addition before
	// Freeze, or an edit (delta.go) after it. That mutation edits them
	// from then on; while they exist, they are the adjacency, and Freeze
	// lays a graph that has them out again. They are nil exactly when
	// the index arrays are the adjacency, so OutEdges and InEdges test
	// one field on that path and stay inlinable; a graph whose adjacency
	// is not laid out yet holds them empty, and headers are never empty,
	// since every graph has its source.
	out, in [][]int32

	// generation counts structural mutations (vertex, edge, or constraint
	// additions) so external analysis caches can detect staleness without
	// re-reading the whole graph. See Generation.
	generation uint64

	// caches built by Freeze
	topo    []VertexID // topological order of the forward subgraph
	anchors []VertexID // source + unbounded-delay vertices, ascending
	csr     *CSR       // flat edge layout for the hot scheduling loops

	// Post-freeze edit state (see delta.go). topoPos[v] is v's rank in
	// topo, maintained incrementally by ApplyEdit so edits never re-run
	// the full Kahn sort. csrDirty marks the CSR as stale after an edit;
	// CSR() rebuilds it lazily on the next call, so chains of edits that
	// stay on the adjacency-list view pay nothing for it.
	topoPos  []int32
	csrDirty bool

	// digest is the content digest a caller stored with SetDigest (the
	// engine's fingerprint), nil when none was stored since the last
	// mutation. Workers reading the same graph may store it at once: they
	// store equal digests, so the race is harmless, and the pointer is
	// atomic. Mutations clear it, and a mutation never runs alongside
	// readers.
	digest atomic.Pointer[[32]byte]
}

// New returns an empty graph containing only the source vertex. The source
// models graph activation and therefore has unbounded delay δ(v0), as
// required by Definition 2 of the paper.
func New() *Graph {
	return NewSized(0, 0)
}

// NewSized is New with room for ops operation vertices besides the
// source and for edges edges, so a builder that knows the graph's size
// (the text parser counts it first) allocates each array once, at its
// exact length.
func NewSized(ops, edges int) *Graph {
	g := &Graph{
		vertices: make([]Vertex, 0, ops+1),
		edges:    make([]Edge, 0, edges),
		out:      [][]int32{},
		in:       [][]int32{},
	}
	g.addVertex("v0", UnboundedDelay())
	return g
}

// Source returns the ID of the source vertex (always 0) — the polar
// source of §III, itself an anchor by Definition 2.
func (g *Graph) Source() VertexID { return 0 }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.vertices) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) Vertex { return g.vertices[id] }

// Vertices returns the vertex slice. Callers must not modify it.
func (g *Graph) Vertices() []Vertex { return g.vertices }

// Edges returns the edge slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// VertexByName returns the first vertex with the given name, or None.
func (g *Graph) VertexByName(name string) VertexID {
	for _, v := range g.vertices {
		if v.Name == name {
			return v.ID
		}
	}
	return None
}

func (g *Graph) addVertex(name string, d Delay) VertexID {
	id := VertexID(len(g.vertices))
	if name == "" {
		name = fmt.Sprintf("v%d", id)
	}
	if g.outStart != nil {
		g.lists()
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	g.vertices = append(g.vertices, Vertex{ID: id, Name: name, Delay: d})
	return id
}

// AddOp adds an operation vertex of the paper's §II model, with a bounded
// or unbounded delay, and returns its ID. It panics if the graph has been frozen.
func (g *Graph) AddOp(name string, d Delay) VertexID {
	g.mutable()
	g.invalidate()
	return g.addVertex(name, d)
}

func (g *Graph) mutable() {
	if g.frozen {
		panic("cg: mutation of frozen graph")
	}
}

func (g *Graph) invalidate() {
	g.generation++
	g.clearDigest()
	g.topo = nil
	g.topoPos = nil
	g.anchors = nil
	g.csr = nil
	g.csrDirty = false
}

// editBump records a sanctioned post-freeze edit (ApplyEdit): the
// generation moves so (identity, generation) caches invalidate, the
// digest is cleared, and the CSR is marked stale for lazy rebuild, but
// the incrementally maintained topo/anchors caches are kept.
func (g *Graph) editBump() {
	g.generation++
	g.clearDigest()
	g.csrDirty = true
}

// Digest returns the digest last stored with SetDigest, and false when
// none was stored since the graph's last mutation. Safe to call from
// concurrent readers of a frozen graph.
func (g *Graph) Digest() ([32]byte, bool) {
	if d := g.digest.Load(); d != nil {
		return *d, true
	}
	return [32]byte{}, false
}

// SetDigest stores a digest of the graph's current content for Digest
// to return until the next mutation: AddOp, AddSeq, AddMin, AddMax,
// AddSerialization, ApplyEdit and RevertDelta all clear it. The graph
// does not check what the digest is; internal/engine stores its
// fingerprint here. Concurrent readers may store the same digest at
// once.
func (g *Graph) SetDigest(d [32]byte) { g.digest.Store(&d) }

// clearDigest drops the digest. The load first keeps the common case, a
// graph under construction that holds none, to a plain read.
func (g *Graph) clearDigest() {
	if g.digest.Load() != nil {
		g.digest.Store(nil)
	}
}

// Generation returns a counter that moves on every structural mutation
// of the graph: AddOp, AddSeq, AddMin, AddMax, and AddSerialization bump
// it while building, ApplyEdit bumps it after Freeze, and RevertDelta
// restores the pre-edit value. Schedules (relsched) and the engine's warm
// map key on the pair (graph identity, generation), so staleness
// detection is O(1) instead of a structural re-hash. Because RevertDelta
// restores a value, an edit after a revert reuses a generation with other
// content: a memo of content, like the digest (SetDigest), is cleared by
// every mutation instead. A frozen graph's generation moves only through
// the delta API (delta.go), which keeps the Freeze-time caches consistent.
func (g *Graph) Generation() uint64 { return g.generation }

func (g *Graph) addEdge(e Edge) int {
	g.check(e.From)
	g.check(e.To)
	if e.From == e.To {
		panic(fmt.Sprintf("cg: self edge on %d", e.From))
	}
	i := len(g.edges)
	g.edges = append(g.edges, e)
	if g.outStart != nil {
		g.lists()
		g.out[e.From] = append(g.out[e.From], int32(i))
		g.in[e.To] = append(g.in[e.To], int32(i))
	}
	return i
}

// buildAdjacency lays out the int32 CSR adjacency from the edge list by a
// counting sort: the start arrays share one allocation, the index arrays
// another. It drops any list headers.
func (g *Graph) buildAdjacency() {
	n, m := len(g.vertices), len(g.edges)
	start := make([]int32, 2*(n+1))
	idx := make([]int32, 2*m)
	out, in := start[:n+1:n+1], start[n+1:]
	for i := range g.edges {
		e := &g.edges[i]
		out[e.From]++
		in[e.To]++
	}
	// Inclusive prefix sums make each start the end of its vertex's
	// range; filling backwards moves it down to the range's beginning
	// and leaves every range in edge-index order.
	for v := 1; v < n; v++ {
		out[v] += out[v-1]
		in[v] += in[v-1]
	}
	out[n], in[n] = int32(m), int32(m)
	outIdx, inIdx := idx[:m:m], idx[m:]
	for i := m - 1; i >= 0; i-- {
		e := &g.edges[i]
		out[e.From]--
		outIdx[out[e.From]] = int32(i)
		in[e.To]--
		inIdx[in[e.To]] = int32(i)
	}
	g.outStart, g.outIdx, g.inStart, g.inIdx = out, outIdx, in, inIdx
	g.out, g.in = nil, nil
}

// lists makes sure the per-vertex list headers exist, carving them, in
// one allocation, over the index arrays: each list is a view with cap ==
// len, so a later append to one vertex's list reallocates that list
// instead of writing into a neighbour's range. Only mutations call it.
func (g *Graph) lists() {
	if len(g.out) > 0 {
		return
	}
	if g.outStart == nil {
		g.buildAdjacency()
	}
	n := len(g.outStart) - 1
	hdr := make([][]int32, 2*n)
	for v := 0; v < n; v++ {
		a, b := g.outStart[v], g.outStart[v+1]
		hdr[v] = g.outIdx[a:b:b]
		a, b = g.inStart[v], g.inStart[v+1]
		hdr[n+v] = g.inIdx[a:b:b]
	}
	g.out, g.in = hdr[:n:n], hdr[n:]
}

func (g *Graph) check(id VertexID) {
	if id < 0 || int(id) >= len(g.vertices) {
		panic(fmt.Sprintf("cg: vertex %d out of range [0,%d)", id, len(g.vertices)))
	}
}

// AddSeq adds a sequencing dependency edge from v_i to v_j with weight
// δ(v_i), per Table I. If v_i has unbounded delay the edge weight is
// unbounded.
func (g *Graph) AddSeq(from, to VertexID) {
	g.mutable()
	g.invalidate()
	d := g.vertices[from].Delay
	g.addEdge(Edge{
		From:      from,
		To:        to,
		Kind:      Sequencing,
		Weight:    d.Min(),
		Unbounded: !d.Bounded(),
	})
}

// AddMin adds a minimum timing constraint σ(v_j) ≥ σ(v_i) + l as a forward
// edge (v_i, v_j) of weight l, per Table I. It panics if l is negative; a
// zero minimum constraint is legal and models simultaneity lower bounds.
func (g *Graph) AddMin(from, to VertexID, l int) {
	g.mutable()
	g.invalidate()
	if l < 0 {
		panic(fmt.Sprintf("cg: negative minimum constraint %d", l))
	}
	g.addEdge(Edge{From: from, To: to, Kind: MinConstraint, Weight: l})
}

// AddMax adds a maximum timing constraint σ(v_j) ≤ σ(v_i) + u as a
// backward edge (v_j, v_i) of weight -u, per Table I. It panics if u is
// negative.
func (g *Graph) AddMax(from, to VertexID, u int) {
	g.mutable()
	g.invalidate()
	if u < 0 {
		panic(fmt.Sprintf("cg: negative maximum constraint %d", u))
	}
	g.addEdge(Edge{From: to, To: from, Kind: MaxConstraint, Weight: -u})
}

// AddSerialization adds the forward edge from an anchor a to vertex v used
// by MakeWellPosed (the paper's makeWellposed, Theorem 7), with unbounded
// weight δ(a). It panics unless a has
// unbounded delay (only anchors serialize successors this way).
func (g *Graph) AddSerialization(a, v VertexID) {
	g.mutable()
	g.invalidate()
	if g.vertices[a].Delay.Bounded() {
		panic(fmt.Sprintf("cg: serialization from bounded-delay vertex %d", a))
	}
	g.addEdge(Edge{From: a, To: v, Kind: Serialization, Unbounded: true})
}

// OutEdges returns the indices of edges leaving v. Callers must not modify
// or append to the returned slice: it can be a view into an index array
// that v's neighbours share.
func (g *Graph) OutEdges(v VertexID) []int32 {
	if g.out == nil {
		return g.outIdx[g.outStart[v]:g.outStart[v+1]]
	}
	return g.outList(v)
}

// outList is OutEdges off the CSR path: v's list header, or, before the
// adjacency is laid out, its CSR range once laid out.
func (g *Graph) outList(v VertexID) []int32 {
	if len(g.out) == 0 {
		g.buildAdjacency()
		return g.OutEdges(v)
	}
	return g.out[v]
}

// InEdges returns the indices of edges entering v. Callers must not modify
// or append to the returned slice, as with OutEdges.
func (g *Graph) InEdges(v VertexID) []int32 {
	if g.in == nil {
		return g.inIdx[g.inStart[v]:g.inStart[v+1]]
	}
	return g.inList(v)
}

// inList is InEdges off the CSR path, as outList is for OutEdges.
func (g *Graph) inList(v VertexID) []int32 {
	if len(g.in) == 0 {
		g.buildAdjacency()
		return g.InEdges(v)
	}
	return g.in[v]
}

// ForwardOut iterates over the forward edges leaving v, calling fn with
// each edge index. Iteration stops early if fn returns false.
func (g *Graph) ForwardOut(v VertexID, fn func(i int, e Edge) bool) {
	for _, i := range g.OutEdges(v) {
		e := g.edges[i]
		if !e.Kind.Forward() {
			continue
		}
		if !fn(int(i), e) {
			return
		}
	}
}

// BackwardEdges returns the indices of all backward edges (E_b), in
// insertion order.
func (g *Graph) BackwardEdges() []int {
	var b []int
	for i, e := range g.edges {
		if !e.Kind.Forward() {
			b = append(b, i)
		}
	}
	return b
}

// NumBackward returns |E_b|.
func (g *Graph) NumBackward() int {
	n := 0
	for _, e := range g.edges {
		if !e.Kind.Forward() {
			n++
		}
	}
	return n
}

// Anchors returns the anchor set A of the graph: the source vertex plus
// every unbounded-delay vertex, in ascending ID order (Definition 2).
func (g *Graph) Anchors() []VertexID {
	if g.anchors != nil {
		return g.anchors
	}
	var a []VertexID
	for _, v := range g.vertices {
		if !v.Delay.Bounded() {
			a = append(a, v.ID)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	if g.frozen {
		g.anchors = a
	}
	return a
}

// IsAnchor reports whether v is an anchor (Definition 2) of the graph.
func (g *Graph) IsAnchor(v VertexID) bool {
	return !g.vertices[v].Delay.Bounded()
}

// Freeze validates the graph and locks it against further mutation.
// Validation enforces the structural preconditions of relative scheduling
// (§III):
// the forward subgraph must be acyclic and the graph polar (every vertex
// reachable from the source in G_f, and the sink — the unique vertex with
// no outgoing forward edges — reachable from every vertex).
//
// Freeze lays the adjacency out as int32 CSR (see buildAdjacency) unless
// it already is, keeps the topological order validation sorted, and
// builds the sweep arrays (see CSR) from the two.
func (g *Graph) Freeze() error {
	if g.frozen {
		return nil
	}
	if g.out != nil {
		g.buildAdjacency()
	}
	order, err := g.validate()
	if err != nil {
		return err
	}
	g.frozen = true
	g.topo = order
	g.buildRanks()
	g.anchors = nil
	g.Anchors()
	g.csr = buildCSR(g)
	g.csrDirty = false
	return nil
}

// buildRanks derives the topoPos rank array from g.topo.
func (g *Graph) buildRanks() {
	g.topoPos = make([]int32, len(g.vertices))
	for i, v := range g.topo {
		g.topoPos[v] = int32(i)
	}
}

// MustFreeze is Freeze that panics on error, for graphs constructed by
// code that guarantees validity (tests, generators).
func (g *Graph) MustFreeze() *Graph {
	if err := g.Freeze(); err != nil {
		panic(err)
	}
	return g
}

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// Clone returns a deep, unfrozen copy of the graph. MakeWellPosed uses
// clones so the caller's graph is never mutated. The clone's vertex and
// edge arrays are exactly as long as the graph; its adjacency is laid
// out from the edge list when first read, so it is in edge-index order
// even where edits left the receiver's in another. The clone inherits
// the receiver's generation counter; because staleness caches key on
// graph identity as well as generation, a clone never aliases its
// parent's cached analyses. It starts with no digest.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		vertices:   make([]Vertex, len(g.vertices)),
		edges:      make([]Edge, len(g.edges)),
		out:        [][]int32{},
		in:         [][]int32{},
		generation: g.generation,
	}
	copy(c.vertices, g.vertices)
	copy(c.edges, g.edges)
	return c
}
