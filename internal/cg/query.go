package cg

import (
	"errors"
	"fmt"
)

// ErrForwardCycle is returned by Freeze when the forward subgraph G_f
// contains a cycle; a valid minimum timing constraint can never close a
// forward cycle (Section III of the paper).
var ErrForwardCycle = errors.New("cg: forward constraint graph is cyclic")

// TopoForward returns a topological order of the vertices with respect to
// the forward subgraph G_f of §III. It panics if G_f is cyclic; call Freeze first
// to surface that as an error.
func (g *Graph) TopoForward() []VertexID {
	if g.frozen && g.topo != nil {
		return g.topo
	}
	order, err := g.topoForward()
	if err != nil {
		panic(err)
	}
	return order
}

func (g *Graph) topoForward() ([]VertexID, error) {
	n := len(g.vertices)
	indeg := make([]int, n)
	for _, e := range g.edges {
		if e.Kind.Forward() {
			indeg[e.To]++
		}
	}
	queue := make([]VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, i := range g.OutEdges(v) {
			e := &g.edges[i]
			if !e.Kind.Forward() {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, ErrForwardCycle
	}
	return order, nil
}

// Sink returns the unique vertex with no outgoing forward edges, or None
// if there is no such vertex or more than one. Polar graphs (§III) have
// exactly one sink.
func (g *Graph) Sink() VertexID {
	sink := None
	for _, v := range g.vertices {
		hasOut := false
		g.ForwardOut(v.ID, func(int, Edge) bool { hasOut = true; return false })
		if !hasOut {
			if sink != None {
				return None
			}
			sink = v.ID
		}
	}
	return sink
}

// ReachableForward returns the set of vertices reachable from v by forward
// edges, including v itself (succ(v) ∪ {v} in the paper's notation).
func (g *Graph) ReachableForward(v VertexID) []bool {
	seen := make([]bool, len(g.vertices))
	g.floodForward(v, seen)
	return seen
}

// floodForward marks every vertex forward-reachable from v (v included)
// in seen, by an explicit-stack depth-first search — recursion depth on
// deep chain graphs would otherwise scale with |V|.
func (g *Graph) floodForward(v VertexID, seen []bool) {
	stack := make([]VertexID, 0, 64)
	seen[v] = true
	stack = append(stack, v)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range g.OutEdges(u) {
			e := &g.edges[i]
			if e.Kind.Forward() && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
}

// IsForwardPredecessor reports whether a is a predecessor of b in G_f,
// i.e. there is a directed forward path from a to b — the pred(·) relation
// used by Definitions 4 and 9. A
// vertex is not its own predecessor.
func (g *Graph) IsForwardPredecessor(a, b VertexID) bool {
	if a == b {
		return false
	}
	return g.ReachableForward(a)[b]
}

// ForwardPredecessors returns, for every vertex, whether it is a forward
// predecessor of v — the pred(v) relation of Definitions 4 and 9. The result is a boolean slice indexed by
// vertex ID; v itself is false.
func (g *Graph) ForwardPredecessors(v VertexID) []bool {
	seen := make([]bool, len(g.vertices))
	stack := make([]VertexID, 0, 64)
	stack = append(stack, v)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range g.InEdges(u) {
			e := &g.edges[i]
			if !e.Kind.Forward() || seen[e.From] {
				continue
			}
			seen[e.From] = true
			stack = append(stack, e.From)
		}
	}
	return seen
}

// validate enforces the model of Section III: acyclic forward graph and
// polarity (all vertices reachable from the source; unique sink reachable
// from all vertices through forward edges). It returns the topological
// order it sorted, which Freeze keeps.
func (g *Graph) validate() ([]VertexID, error) {
	order, err := g.topoForward()
	if err != nil {
		return nil, err
	}
	if len(g.vertices) == 1 {
		return order, nil // degenerate source-only graph
	}
	reach := g.ReachableForward(g.Source())
	for _, v := range g.vertices {
		if !reach[v.ID] {
			return nil, fmt.Errorf("cg: vertex %d (%s) unreachable from source", v.ID, v.Name)
		}
	}
	sink := g.Sink()
	if sink == None {
		return nil, errors.New("cg: graph is not polar: no unique sink")
	}
	// Every vertex must reach the sink: flood the reversed forward edges
	// from the sink (explicit stack — validation runs before the graph is
	// frozen, so deep chains would otherwise recurse |V| frames).
	co := make([]bool, len(g.vertices))
	stack := []VertexID{sink}
	co[sink] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range g.InEdges(u) {
			e := &g.edges[i]
			if e.Kind.Forward() && !co[e.From] {
				co[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	for _, v := range g.vertices {
		if !co[v.ID] {
			return nil, fmt.Errorf("cg: vertex %d (%s) cannot reach sink", v.ID, v.Name)
		}
	}
	return order, nil
}
