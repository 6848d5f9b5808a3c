package cg

import "math"

// Unreachable is the path length reported for vertex pairs with no
// connecting path.
const Unreachable = math.MinInt32

// LongestForwardFrom returns, for every vertex, the length of the longest
// weighted path from src using only forward edges, with unbounded edge
// weights at their minimum value 0 — the length(src, v) quantities of
// Definition 3 restricted to G_f. Unreachable vertices get Unreachable.
//
// The forward subgraph is acyclic so a single relaxation sweep in
// topological order suffices. On frozen graphs the sweep runs over the CSR
// topo-ordered forward edge arrays — one flat pass, no per-edge closure.
func (g *Graph) LongestForwardFrom(src VertexID) []int {
	dist := make([]int, len(g.vertices))
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if c := g.csrView(); c != nil {
		for k := range c.TopoFrom {
			f := dist[c.TopoFrom[k]]
			if f == Unreachable {
				continue
			}
			if d := f + c.TopoW[k]; d > dist[c.TopoTo[k]] {
				dist[c.TopoTo[k]] = d
			}
		}
		return dist
	}
	for _, v := range g.TopoForward() {
		if dist[v] == Unreachable {
			continue
		}
		for _, i := range g.OutEdges(v) {
			e := &g.edges[i]
			if !e.Kind.Forward() {
				continue
			}
			if d := dist[v] + e.MinWeight(); d > dist[e.To] {
				dist[e.To] = d
			}
		}
	}
	return dist
}

// LongestFrom returns, for every vertex, the length of the longest
// weighted path from src in the full graph G (forward and backward edges),
// with unbounded edge weights set to 0 — the paper's length(src, ·). The
// second result is false if a positive cycle is reachable from src, in
// which case longest paths are unbounded and the distances are not
// meaningful.
//
// The full graph can contain cycles (through backward edges), so this is
// Bellman–Ford specialized to longest paths: O(|V|·|E|). Frozen graphs
// relax over the CSR flat edge arrays.
func (g *Graph) LongestFrom(src VertexID) ([]int, bool) {
	n := len(g.vertices)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if c := g.csrView(); c != nil {
		return dist, c.relaxLongest(dist, n)
	}
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for _, e := range g.edges {
			if dist[e.From] == Unreachable {
				continue
			}
			if d := dist[e.From] + e.MinWeight(); d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return dist, true
		}
	}
	for _, e := range g.edges {
		if dist[e.From] == Unreachable {
			continue
		}
		if dist[e.From]+e.MinWeight() > dist[e.To] {
			return dist, false
		}
	}
	return dist, true
}

// relaxLongest runs the Bellman–Ford longest-path relaxation over the flat
// edge arrays until fixpoint, bounded by n-1 sweeps plus the positive-cycle
// check: a further sweep that still raises a distance. dist must be
// pre-seeded; ok is false on a reachable positive cycle.
func (c *CSR) relaxLongest(dist []int, n int) bool {
	for iter := 0; iter < n-1; iter++ {
		if !c.sweepLongest(dist) {
			return true
		}
	}
	return !c.sweepLongest(dist)
}

// sweepLongest is one Bellman–Ford pass over every edge — the forward
// edges in topological order, then the backward edges — raising each
// head's distance to its tail's plus the edge's minimum weight, except
// from tails still at Unreachable. It reports whether any distance rose.
// The order only speeds convergence: the fixpoint, and whether one exists,
// do not depend on it.
func (c *CSR) sweepLongest(dist []int) bool {
	fwd := relaxEdges(dist, c.TopoFrom, c.TopoTo, c.TopoW)
	return relaxEdges(dist, c.BwdFrom, c.BwdTo, c.BwdW) || fwd
}

// relaxEdges relaxes the edges from[k] → to[k] of weight w[k] in order,
// skipping tails at Unreachable, and reports whether any distance rose.
func relaxEdges(dist []int, from, to []int32, w []int) bool {
	changed := false
	for k := range from {
		f := dist[from[k]]
		if f == Unreachable {
			continue
		}
		if d := f + w[k]; d > dist[to[k]] {
			dist[to[k]] = d
			changed = true
		}
	}
	return changed
}

// LongestFromInduced returns longest-path distances from src in the
// subgraph induced by the vertex set allowed (src must be allowed): only
// edges with both endpoints allowed participate. Unbounded weights count
// as 0. This computes the minimum offsets of Definition 3: the induced
// subgraph G_a over V_a (src and its forward successors) with backward
// edges among them included. The second result is false if a positive
// cycle within the induced subgraph is reachable from src.
func (g *Graph) LongestFromInduced(src VertexID, allowed []bool) ([]int, bool) {
	n := len(g.vertices)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for _, e := range g.edges {
			if !allowed[e.From] || !allowed[e.To] || dist[e.From] == Unreachable {
				continue
			}
			if d := dist[e.From] + e.MinWeight(); d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return dist, true
		}
	}
	for _, e := range g.edges {
		if !allowed[e.From] || !allowed[e.To] || dist[e.From] == Unreachable {
			continue
		}
		if dist[e.From]+e.MinWeight() > dist[e.To] {
			return dist, false
		}
	}
	return dist, true
}

// HasPositiveCycle reports whether G₀ — the constraint graph with all
// unbounded delays set to 0 — contains a cycle of strictly positive
// length. By Theorem 1 this is exactly the unfeasibility condition.
func (g *Graph) HasPositiveCycle() bool {
	// Bellman–Ford from a virtual super-source connected to every vertex
	// with weight 0, so cycles in any component are found.
	n := len(g.vertices)
	dist := make([]int, n) // all zero: the virtual source relaxation
	if c := g.csrView(); c != nil {
		// Distances start at 0 and only rise, so no tail is Unreachable.
		for iter := 0; iter < n; iter++ {
			if !c.sweepLongest(dist) {
				return false
			}
		}
		return true
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.edges {
			if d := dist[e.From] + e.MinWeight(); d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// HasUnboundedCycle reports whether the graph contains a cycle through at
// least one unbounded-weight edge. By Lemma 3, a feasible graph can be
// made well-posed if and only if no such cycle exists.
func (g *Graph) HasUnboundedCycle() bool {
	// For each unbounded edge (a, v), a cycle of unbounded length exists
	// iff a is reachable from v in the full graph.
	n := len(g.vertices)
	for _, e := range g.edges {
		if !e.Unbounded {
			continue
		}
		if g.reaches(e.To, e.From, make([]bool, n)) {
			return true
		}
	}
	return false
}

// reaches reports whether dst is reachable from src in the full graph,
// by an explicit-stack depth-first search (recursion would overflow on
// deep chain graphs).
func (g *Graph) reaches(src, dst VertexID, seen []bool) bool {
	if src == dst {
		return true
	}
	stack := make([]VertexID, 0, 64)
	seen[src] = true
	stack = append(stack, src)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range g.OutEdges(v) {
			to := g.edges[i].To
			if to == dst {
				return true
			}
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return false
}

// CriticalForwardLength returns the length of the longest forward path
// from the source to the sink with unbounded weights at 0 — the minimum
// possible latency of the graph (the fixed-delay latency reported per
// graph in Table III).
func (g *Graph) CriticalForwardLength() int {
	sink := g.Sink()
	if sink == None {
		return Unreachable
	}
	return g.LongestForwardFrom(g.Source())[sink]
}
