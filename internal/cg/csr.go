package cg

// CSR is the frozen compressed-sparse-row view of a Graph: the same edges
// as Edges()/OutEdges(), relaid as flat struct-of-arrays so the hot
// scheduling loops (anchor-set propagation, longest-path relaxation,
// backward-edge readjustment) iterate over dense int32/int arrays instead
// of chasing [][]int adjacency slices and calling per-edge closures.
//
// A CSR exists only for frozen graphs — Freeze builds it after validation,
// and frozen graphs are immutable, so the view can never go stale. All
// fields are read-only for callers; see docs/PERFORMANCE.md for the layout
// rationale and measured effect.
type CSR struct {
	n int

	// Out* is the all-edge out-adjacency in CSR form: the out-edges of
	// vertex v occupy positions OutStart[v]..OutStart[v+1] of the parallel
	// arrays. OutUnb marks unbounded weights and OutFwd membership in E_f.
	// Within one vertex the edges keep the order of OutEdges.
	OutStart []int32
	OutTo    []int32
	OutUnb   []bool
	OutFwd   []bool

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

// buildCSR freezes the adjacency into flat arrays. Called by Freeze once
// validation has succeeded and the topological order is cached.
func buildCSR(g *Graph) *CSR {
	n := len(g.vertices)
	m := len(g.edges)
	c := &CSR{
		n:        n,
		OutStart: make([]int32, n+1),
		OutTo:    make([]int32, m),
		OutUnb:   make([]bool, m),
		OutFwd:   make([]bool, m),
	}
	pos := 0
	for v := 0; v < n; v++ {
		c.OutStart[v] = int32(pos)
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			c.OutTo[pos] = int32(e.To)
			c.OutUnb[pos] = e.Unbounded
			c.OutFwd[pos] = e.Kind.Forward()
			pos++
		}
	}
	c.OutStart[n] = int32(pos)

	for _, e := range g.edges {
		if !e.Kind.Forward() {
			c.BwdFrom = append(c.BwdFrom, int32(e.From))
			c.BwdTo = append(c.BwdTo, int32(e.To))
			c.BwdW = append(c.BwdW, e.Weight)
		}
	}

	nf := m - len(c.BwdFrom)
	c.TopoFrom = make([]int32, 0, nf)
	c.TopoTo = make([]int32, 0, nf)
	c.TopoW = make([]int, 0, nf)
	c.TopoUnb = make([]bool, 0, nf)
	for _, v := range g.topo {
		for _, ei := range g.out[v] {
			e := g.edges[ei]
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
