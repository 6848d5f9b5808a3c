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
	// Irredundant[v] is IR(v). Definition 11 compares longest paths, and
	// by Theorem 3 those are the minimum offsets, so the sets are derived
	// from the σ table once it exists: populated on every scheduled
	// analysis (Schedule.Info), nil on the result of Analyze alone.
	Irredundant []bitset.Set
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

// Sets returns the per-vertex anchor sets of the mode: Full, Relevant or
// Irredundant.
func (ai *AnchorInfo) Sets(mode AnchorMode) []bitset.Set {
	switch mode {
	case FullAnchors:
		return ai.Full
	case RelevantAnchors:
		return ai.Relevant
	default:
		return ai.Irredundant
	}
}

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
	edges := g.Edges()
	ai.Relevant = bitset.NewArena(g.N(), len(ai.List))
	seen := make([]bool, g.N())
	stack := make([]cg.VertexID, 0, 64)
	// crossFrom pushes the heads of v's unbounded out-edges (the start of
	// a defining path) or of its bounded ones (a continuation of one).
	crossFrom := func(v cg.VertexID, unbounded bool) {
		for _, ei := range g.OutEdges(v) {
			if e := &edges[ei]; e.Unbounded == unbounded {
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
// off must be a vertex-major arena of nV·|A| offsets whose entry
// v·|A|+ai holds length(a, v) for anchor index ai (cg.Unreachable when no
// path exists) — the σ table the sweeps converge to (Theorem 3) — and is
// read by direct indexing.
func (ai *AnchorInfo) irredundantAnchors(off []int, nV int) {
	nA := len(ai.List)
	row := func(u int) []int { return off[u*nA : (u+1)*nA] }
	ai.Irredundant = bitset.NewArena(nV, nA)
	full := make([]int, 0, nA)
	for v := 0; v < nV; v++ {
		full = ai.irredundantAt(v, row(v), row, ai.Irredundant[v], full)
	}
}

// withIrredundant returns a copy of the analysis completed with the
// irredundant sets derived from the σ arena off of its nV vertices (see
// irredundantAnchors). The receiver is left as it was, so one analysis
// can back any number of schedules concurrently.
func (ai *AnchorInfo) withIrredundant(off []int, nV int) *AnchorInfo {
	out := *ai
	out.irredundantAnchors(off, nV)
	return &out
}

// irredundantAt runs the Definition 11 domination test at one vertex,
// filling ir with IR(v). lv is v's σ column and row(q) an anchor q's, each
// spread over every anchor index, NoOffset where undefined (see
// dropDominated). full is a reusable scratch buffer, returned for
// recycling. Factored out of irredundantAnchors so the delta path
// (delta.go) can re-derive IR(v) for just the vertices an edit touched.
func (ai *AnchorInfo) irredundantAt(v int, lv []int, row func(q int) []int, ir bitset.Set, full []int) []int {
	ir.CopyFrom(ai.Full[v])
	full = ai.Full[v].AppendTo(full[:0])
	if len(full) > 1 { // only another anchor of A(v) can dominate one
		ai.dropDominated(v, lv, row, full, full, ir)
	}
	return full
}

// dropDominated removes from set each anchor index of xs that some
// anchor index of qs dominates at v, both lists drawn from A(v)
// (Definition 11): q is not v itself, x ∈ A(q), and
// length(x, v) ≤ length(x, q) + length(q, v), with the lengths read from
// lv, v's σ column spread over every anchor index, and from row(q), q's;
// row is called once per q, and lv must stay valid across the calls.
// Anchors already missing from set are not tested.
func (ai *AnchorInfo) dropDominated(v int, lv []int, row func(q int) []int, xs, qs []int, set bitset.Set) {
	for _, qi := range qs {
		q := ai.List[qi]
		lqv := lv[qi]
		if int(q) == v || lqv == cg.Unreachable {
			continue
		}
		lq, fq := row(int(q)), ai.Full[q]
		for _, xi := range xs {
			if xi == qi || !set.Has(xi) || !fq.Has(xi) {
				continue
			}
			if lxq := lq[xi]; lxq != cg.Unreachable && lv[xi] <= lxq+lqv {
				set.Remove(xi)
			}
		}
	}
}

// Analyze computes the anchor and relevant-anchor sets of a frozen
// constraint graph — the paper's findAnchorSet and relevantAnchor
// algorithms (§IV). The irredundant sets (minimumAnchor) compare offsets,
// so scheduling completes them (see AnchorInfo.Irredundant). The graph
// must be feasible: offsets diverge on positive cycles, so Analyze
// returns ErrUnfeasible in that case.
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
// graph. It runs the relevant-anchor pass on top of the already-computed
// full anchor sets, producing an AnchorInfo identical to Analyze(g) —
// without repeating the anchor-set pass, which dominates the
// well-posedness check and the analysis alike. The pair exists so a
// pipeline that both *checks* well-posedness and *analyzes* (the
// engine's hot path) computes the anchor sets once instead of twice;
// Compute keeps the paper's two-pass structure.
func AnalyzeFromSets(g *cg.Graph, ai *AnchorInfo) (*AnchorInfo, error) {
	ai.relevantAnchors()
	return ai, nil
}

// TotalSizes returns the summed cardinalities of the full, relevant and
// irredundant anchor sets over all vertices — the quantities reported in
// Table III of the paper. The sums run over the analysis's own vertices,
// which a newer schedule in a delta chain may have outgrown; irredundant
// is 0 until the analysis is scheduled.
func (ai *AnchorInfo) TotalSizes() (full, relevant, irredundant int) {
	for v := range ai.Full {
		full += ai.Full[v].Count()
		relevant += ai.Relevant[v].Count()
		if ai.Irredundant != nil {
			irredundant += ai.Irredundant[v].Count()
		}
	}
	return
}

// String summarizes the analysis for diagnostics.
func (ai *AnchorInfo) String() string {
	f, r, ir := ai.TotalSizes()
	return fmt.Sprintf("anchors=%d |A(v)|=%d |R(v)|=%d |IR(v)|=%d over %d vertices",
		len(ai.List), f, r, ir, len(ai.Full))
}
