// Package relsched implements relative scheduling under timing constraints
// (Ku & De Micheli, DAC 1990): anchor-set analysis, well-posedness checking
// and repair, redundant-anchor removal, and the iterative incremental
// scheduling algorithm that produces minimum relative schedules or proves
// the constraints inconsistent.
package relsched

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/cg"
)

// AnchorInfo holds the anchor-set analysis of a constraint graph: the
// anchor list, the full anchor set A(v) of every vertex (Definition 4),
// the relevant anchor set R(v) (Definition 9), and the irredundant anchor
// set IR(v) (Definition 11).
type AnchorInfo struct {
	G *cg.Graph
	// List is the graph's anchors in ascending vertex-ID order; the
	// source vertex is always List[0].
	List []cg.VertexID
	// Index maps an anchor vertex to its position in List.
	Index map[cg.VertexID]int
	// Full[v] is A(v) as a bit set over anchor indices.
	Full []bitset.Set
	// Relevant[v] is R(v). Populated by Analyze.
	Relevant []bitset.Set
	// Irredundant[v] is IR(v). Populated by Analyze.
	Irredundant []bitset.Set
	// Reach[ai][v] reports whether v is reachable from anchor index ai in
	// the full graph — the domain over which offsets σ_a(·) exist. By
	// Theorem 3 the minimum offsets are the longest paths in the full
	// constraint graph, so the offset tables close over full-graph
	// reachability (a superset of Definition 3's forward-successor set
	// V_a; the extra entries are internal bookkeeping that keeps the
	// tables compositional across backward edges).
	Reach [][]bool
	// Longest[ai][v] is the longest-path distance length(a, v) from anchor
	// index ai to v in the full graph with unbounded weights at 0
	// (cg.Unreachable when no path exists) — the matrices behind the
	// Definition 11 domination test. Populated by Analyze and retained so
	// memoization layers (internal/engine) can reuse the Bellman–Ford work
	// across repeated schedules of the same graph.
	Longest [][]int
	// FwdReach[ai][v] reports whether v is forward-reachable from anchor
	// index ai (the anchor included) — Definition 3's successor set V_a.
	// Computed once per analysis so every schedule of the graph (including
	// the incremental WithMax/WithMinConstraint probes during conflict
	// search) seeds its offset rows without re-walking the graph.
	FwdReach [][]bool
}

// fwdReach returns the forward-reachability row of anchor index ai,
// computing it on the fly for hand-built AnchorInfo values predating
// FwdReach (nil entries).
func (ai *AnchorInfo) fwdReach(i int) []bool {
	if i < len(ai.FwdReach) && ai.FwdReach[i] != nil {
		return ai.FwdReach[i]
	}
	return ai.G.ReachableForward(ai.List[i])
}

// NumAnchors returns |A|, the number of anchors (Definition 2).
func (ai *AnchorInfo) NumAnchors() int { return len(ai.List) }

// AnchorVertex returns the vertex ID of anchor index i (an anchor per
// Definition 2).
func (ai *AnchorInfo) AnchorVertex(i int) cg.VertexID { return ai.List[i] }

// FullSet returns the anchor set A(v) of Definition 4 as a sorted
// vertex-ID slice.
func (ai *AnchorInfo) FullSet(v cg.VertexID) []cg.VertexID { return ai.ids(ai.Full[v]) }

// RelevantSet returns the relevant anchor set R(v) of Definition 9 as a
// sorted vertex-ID slice.
func (ai *AnchorInfo) RelevantSet(v cg.VertexID) []cg.VertexID { return ai.ids(ai.Relevant[v]) }

// IrredundantSet returns the irredundant anchor set IR(v) of Definition 11
// as a sorted vertex-ID slice.
func (ai *AnchorInfo) IrredundantSet(v cg.VertexID) []cg.VertexID { return ai.ids(ai.Irredundant[v]) }

func (ai *AnchorInfo) ids(s bitset.Set) []cg.VertexID {
	var out []cg.VertexID
	s.ForEach(func(i int) { out = append(out, ai.List[i]) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// anchorSets computes the full anchor sets A(v) for every vertex by a
// single pass over the forward edges in topological order — the
// findAnchorSet algorithm of §IV-A, reformulated as a relaxation so each
// forward edge is examined exactly once: for a forward edge (u, v),
// A(v) ⊇ A(u), and additionally u ∈ A(v) when the edge weight is the
// unbounded delay δ(u). Worst-case O(|E_f|·|A|/64) words of merging.
func anchorSets(g *cg.Graph) *AnchorInfo {
	list := g.Anchors()
	ai := &AnchorInfo{
		G:     g,
		List:  list,
		Index: make(map[cg.VertexID]int, len(list)),
		Full:  bitset.NewArena(g.N(), len(list)),
	}
	for i, a := range list {
		ai.Index[a] = i
	}
	if c := g.CSR(); c != nil {
		// Frozen graph: the CSR forward edge arrays are already sorted by
		// the tail's topological rank, so one flat pass is the whole sweep.
		anchorIdx := make([]int32, g.N())
		for i := range anchorIdx {
			anchorIdx[i] = -1
		}
		for i, a := range list {
			anchorIdx[a] = int32(i)
		}
		for k := range c.TopoFrom {
			u, to := c.TopoFrom[k], c.TopoTo[k]
			ai.Full[to].UnionWith(ai.Full[u])
			if c.TopoUnb[k] {
				ai.Full[to].Add(int(anchorIdx[u]))
			}
		}
		return ai
	}
	// Unfrozen graphs (MakeWellPosed analyzes mutable clones mid-repair)
	// walk the adjacency through the closure iterator.
	for _, u := range g.TopoForward() {
		g.ForwardOut(u, func(_ int, e cg.Edge) bool {
			ai.Full[e.To].UnionWith(ai.Full[u])
			if e.Unbounded {
				ai.Full[e.To].Add(ai.Index[u])
			}
			return true
		})
	}
	return ai
}

// relevantAnchors computes R(v) for every vertex: anchor r is relevant to
// v when a defining path ρ(r, v) exists — a path in the full graph whose
// only unbounded-weight edge is the first one, leaving r (Definitions 8–9).
//
// Implementation of the paper's relevantAnchor: for each anchor, cross its
// unbounded out-edges once, then flood along bounded-weight edges of any
// kind (forward or backward) with an explicit work stack — recursion depth
// would otherwise scale with |V| on deep chain graphs — visiting each
// vertex at most once per anchor. O(|A|·(|V|+|E|)).
func (ai *AnchorInfo) relevantAnchors() {
	g := ai.G
	c := g.CSR()
	ai.Relevant = bitset.NewArena(g.N(), len(ai.List))
	seen := make([]bool, g.N())
	stack := make([]cg.VertexID, 0, 64)
	// crossUnbounded pushes the heads of v's unbounded out-edges (start of
	// a defining path); pushBounded pushes the heads of its bounded ones
	// (continuation of one).
	crossFrom := func(v cg.VertexID, unbounded bool) {
		if c != nil {
			for k := c.OutStart[v]; k < c.OutStart[v+1]; k++ {
				if c.OutUnb[k] == unbounded {
					stack = append(stack, cg.VertexID(c.OutTo[k]))
				}
			}
			return
		}
		for _, ei := range g.OutEdges(v) {
			if e := g.Edge(ei); e.Unbounded == unbounded {
				stack = append(stack, e.To)
			}
		}
	}
	for idx, a := range ai.List {
		for i := range seen {
			seen[i] = false
		}
		seen[a] = true
		stack = stack[:0]
		crossFrom(a, true)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			ai.Relevant[v].Add(idx)
			crossFrom(v, false)
		}
	}
}

// irredundantAnchors computes IR(v) for every vertex by the Definition 11
// domination test, applied over the full anchor set: an anchor x ∈ A(v) is
// redundant when some anchor q ∈ A(v) with x ∈ A(q) satisfies
// length(x, v) ≤ length(x, q) + length(q, v), where length is the longest
// path with unbounded weights at 0. Dropping x is then provably safe for
// start-time computation (Lemma 6): T(q) ≥ T(x) + δ(x) + σ_x(q) because
// x ∈ A(q), and δ(q) ≥ 0 closes the inequality.
//
// This is the paper's minimumAnchor, generalized from R(v) to A(v): the
// classical cases coincide, and applying the domination test to the full
// set stays sound even for the corner where an anchor's longest path to v
// starts with one of its bounded (minimum-constraint) out-edges — a path
// shape the relevant-anchor separation argument does not cover.
//
// longest[ai] must hold the longest-path distances from anchor ai to all
// vertices (cg.Unreachable when no path exists).
func (ai *AnchorInfo) irredundantAnchors(longest [][]int) {
	g := ai.G
	ai.Irredundant = bitset.NewArena(g.N(), len(ai.List))
	full := make([]int, 0, len(ai.List))
	for v := 0; v < g.N(); v++ {
		full = ai.irredundantAt(v, longest, ai.Irredundant[v], full)
	}
}

// irredundantAt runs the Definition 11 domination test at one vertex,
// filling ir with IR(v). full is a reusable scratch buffer, returned for
// recycling. Factored out of irredundantAnchors so the delta path
// (delta.go) can re-derive IR(v) for just the vertices an edit touched.
func (ai *AnchorInfo) irredundantAt(v int, longest [][]int, ir bitset.Set, full []int) []int {
	ir.CopyFrom(ai.Full[v])
	full = ai.Full[v].AppendTo(full[:0])
	for _, qi := range full {
		q := ai.List[qi]
		if cg.VertexID(v) == q {
			continue
		}
		for _, xi := range full {
			if xi == qi || !ai.Full[q].Has(xi) {
				continue
			}
			lxv := longest[xi][v]
			lxq := longest[xi][q]
			lqv := longest[qi][v]
			if lxq == cg.Unreachable || lqv == cg.Unreachable {
				continue
			}
			if lxv <= lxq+lqv {
				ir.Remove(xi)
			}
		}
	}
	return full
}

// Analyze computes the anchor, relevant-anchor and irredundant-anchor sets
// of a frozen constraint graph — the paper's findAnchorSet, relevantAnchor
// and minimumAnchor algorithms (§IV). The graph must be feasible: longest-path
// computations diverge on positive cycles, so Analyze returns
// ErrUnfeasible in that case.
func Analyze(g *cg.Graph) (*AnchorInfo, error) {
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	if g.HasPositiveCycle() {
		return nil, ErrUnfeasible
	}
	return AnalyzeFromSets(g, anchorSets(g))
}

// AnalyzeFromSets completes an anchor-set analysis started by
// CheckWellPosedAnalyzed: ai must be that call's result for the same
// graph. It runs the relevant-anchor, longest-path, reachability, and
// redundancy-removal passes on top of the already-computed full anchor
// sets, producing an AnchorInfo identical to Analyze(g) — without
// repeating the anchor-set pass, which dominates the well-posedness
// check and the analysis alike. The pair exists so a pipeline that both
// *checks* well-posedness and *analyzes* (the engine's hot path)
// computes the anchor sets once instead of twice; Compute keeps the
// paper's two-pass structure.
func AnalyzeFromSets(g *cg.Graph, ai *AnchorInfo) (*AnchorInfo, error) {
	ai.relevantAnchors()
	nA := len(ai.List)
	n := g.N()
	ai.Longest = make([][]int, nA)
	ai.Reach = make([][]bool, nA)
	ai.FwdReach = make([][]bool, nA)
	// Both boolean tables are carved from flat arenas — two allocations
	// for 2·nA rows.
	reachArena := make([]bool, nA*n)
	fwdArena := make([]bool, nA*n)
	for i, a := range ai.List {
		d, ok := g.LongestFrom(a)
		if !ok {
			return nil, ErrUnfeasible
		}
		ai.Longest[i] = d
		reach := reachArena[i*n : (i+1)*n : (i+1)*n]
		for v := range d {
			reach[v] = d[v] != cg.Unreachable
		}
		ai.Reach[i] = reach
		fwd := fwdArena[i*n : (i+1)*n : (i+1)*n]
		g.ReachableForwardInto(a, fwd)
		ai.FwdReach[i] = fwd
	}
	ai.irredundantAnchors(ai.Longest)
	return ai, nil
}

// TotalSizes returns the summed cardinalities of the full, relevant and
// irredundant anchor sets over all vertices — the quantities reported in
// Table III of the paper.
func (ai *AnchorInfo) TotalSizes() (full, relevant, irredundant int) {
	for v := 0; v < ai.G.N(); v++ {
		full += ai.Full[v].Count()
		relevant += ai.Relevant[v].Count()
		irredundant += ai.Irredundant[v].Count()
	}
	return
}

// String summarizes the analysis for diagnostics.
func (ai *AnchorInfo) String() string {
	f, r, ir := ai.TotalSizes()
	return fmt.Sprintf("anchors=%d |A(v)|=%d |R(v)|=%d |IR(v)|=%d over %d vertices",
		len(ai.List), f, r, ir, ai.G.N())
}
