package cg

// CSR holds the sweep arrays of a frozen Graph: the forward edges in
// topological order and the backward edges, relaid as flat
// struct-of-arrays so the hot scheduling loops (anchor-set propagation,
// longest-path relaxation, backward-edge readjustment) iterate over dense
// int32/int arrays instead of reading edge records and calling per-edge
// closures. The adjacency itself is the graph's own int32 CSR
// (OutEdges/InEdges).
//
// A CSR exists only for frozen graphs — Freeze builds it after validation,
// and frozen graphs are immutable, so the view can never go stale. All
// fields are read-only for callers; see docs/PERFORMANCE.md for the layout
// rationale and measured effect.
type CSR struct {
	n int

	// Topo* is the forward edge set E_f sorted by the topological rank of
	// the tail (ties in insertion order): one flat pass over these arrays
	// is exactly the "for v in topological order, for each forward
	// out-edge of v" double loop of the paper's relaxation procedures.
	TopoFrom []int32
	TopoTo   []int32
	TopoW    []int
	TopoUnb  []bool

	// Bwd* is the backward edge set E_b in insertion order — the edges
	// ReadjustOffset scans. BwdW is the (negative) edge weight -u.
	// The Bellman–Ford longest-path solvers iterate Topo* then Bwd*, which
	// together hold every edge once.
	BwdFrom []int32
	BwdTo   []int32
	BwdW    []int
}

// N returns the number of vertices the view covers.
func (c *CSR) N() int { return c.n }

// CSR returns the frozen compressed layout of the graph, or nil when the
// graph has not been frozen yet (mutable graphs have no stable layout).
// After a post-freeze edit (ApplyEdit/RevertDelta) the layout is rebuilt
// lazily on the next call: chains of edits that stay on the adjacency
// view never pay for it, while CSR consumers (Analyze, ReferenceCompute,
// positive-cycle classification) transparently see the edited graph.
// The lazy rebuild is a mutation of the cache: like edits themselves, a
// first CSR() call after an edit must not race other graph readers.
func (g *Graph) CSR() *CSR {
	if g.csrDirty {
		g.csr = buildCSR(g)
		g.csrDirty = false
	}
	return g.csr
}

// csrView returns the CSR fast-path view, or nil when there is none OR
// the cached one is stale from a post-freeze edit. Query helpers with an
// adjacency fallback use this instead of g.csr so they stay correct (and
// mutation-free) between an edit and the next CSR() rebuild.
func (g *Graph) csrView() *CSR {
	if g.csrDirty {
		return nil
	}
	return g.csr
}

// buildCSR lays out the sweep arrays, each at its exact length: the
// int32 endpoints in one allocation, the weights in another. Called by
// Freeze once validation has succeeded and the topological order is
// cached, and by CSR after an edit.
func buildCSR(g *Graph) *CSR {
	m := len(g.edges)
	nb := 0
	for i := range g.edges {
		if !g.edges[i].Kind.Forward() {
			nb++
		}
	}
	nf := m - nb
	ends := make([]int32, 2*m)
	ws := make([]int, m)
	c := &CSR{
		n:        len(g.vertices),
		TopoFrom: ends[0:0:nf],
		TopoTo:   ends[nf : nf : 2*nf],
		TopoW:    ws[0:0:nf],
		TopoUnb:  make([]bool, 0, nf),
		BwdFrom:  ends[2*nf : 2*nf : 2*nf+nb],
		BwdTo:    ends[2*nf+nb : 2*nf+nb],
		BwdW:     ws[nf:nf],
	}
	for i := range g.edges {
		if e := &g.edges[i]; !e.Kind.Forward() {
			c.BwdFrom = append(c.BwdFrom, int32(e.From))
			c.BwdTo = append(c.BwdTo, int32(e.To))
			c.BwdW = append(c.BwdW, e.Weight)
		}
	}
	for _, v := range g.topo {
		for _, ei := range g.OutEdges(v) {
			e := &g.edges[ei]
			if !e.Kind.Forward() {
				continue
			}
			c.TopoFrom = append(c.TopoFrom, int32(v))
			c.TopoTo = append(c.TopoTo, int32(e.To))
			c.TopoW = append(c.TopoW, e.MinWeight())
			c.TopoUnb = append(c.TopoUnb, e.Unbounded)
		}
	}
	return c
}
