package relsched

import (
	"slices"

	"repro/internal/cg"
)

// ClassicalSchedule solves the traditional fixed-delay scheduling problem
// (Definition 1 plus timing constraints) on a graph with no unbounded
// delays other than the source, whose activation delay is taken as 0. This
// is the Camposano–Kunzmann / Liao–Wong setting the paper generalizes, and
// serves as the baseline scheduler: σ(v) is a single integer per vertex.
//
// It returns ErrInconsistent when the constraints admit no schedule
// (positive cycle), and ErrUnfeasible if the graph has unbounded-delay
// operations, which classical scheduling cannot express.
func ClassicalSchedule(g *cg.Graph) ([]int, error) {
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	for _, v := range g.Vertices() {
		if v.ID != g.Source() && !v.Delay.Bounded() {
			return nil, ErrUnfeasible
		}
	}
	sigma := make([]int, g.N())
	backward := g.BackwardEdges()
	for c := 0; c <= len(backward); c++ {
		// Longest-path sweep over forward edges in topological order.
		for _, p := range g.TopoForward() {
			g.ForwardOut(p, func(_ int, e cg.Edge) bool {
				if d := sigma[p] + e.MinWeight(); d > sigma[e.To] {
					sigma[e.To] = d
				}
				return true
			})
		}
		changed := false
		for _, ei := range backward {
			e := g.Edge(ei)
			if sigma[e.To] < sigma[e.From]+e.Weight {
				sigma[e.To] = sigma[e.From] + e.Weight
				changed = true
			}
		}
		if !changed {
			return sigma, nil
		}
	}
	return nil, ErrInconsistent
}

// DecompositionSchedule computes the minimum relative schedule by the
// naive per-anchor decomposition the paper mentions at the head of §IV
// step 4: for each anchor a, run an independent longest-path computation
// (Bellman–Ford, since backward edges induce cycles) over the subgraph
// reachable from a. By Theorem 3 the resulting offsets equal the ones the
// iterative incremental scheduler produces; the decomposition costs
// O(|A|·|V|·|E|) and is used as a correctness cross-check and a benchmark
// baseline.
func DecompositionSchedule(info *AnchorInfo) (*Schedule, error) {
	g := info.G
	nA, nV := len(info.List), g.N()
	off := make([]int, nA*nV)
	for ai, a := range info.List {
		dist, ok := g.LongestFrom(a)
		if !ok {
			return nil, ErrInconsistent
		}
		// cg.Unreachable and NoOffset are the same sentinel, so the
		// distance vector is the anchor's offsets verbatim.
		for v, d := range dist {
			off[v*nA+ai] = d
		}
	}
	// One longest-path solve per anchor.
	return newSchedule(info, nA, off, definedBits(off, nA, nV), nil), nil
}

// EqualOffsets reports whether two schedules assign identical offsets
// σ_a(v) (Definition 5) for every (anchor, vertex) pair in the full anchor
// sets. Schedules must be
// over the same graph and anchor analysis.
func EqualOffsets(a, b *Schedule) bool {
	if a.G != b.G || a.cols.n != b.cols.n {
		return false
	}
	// Columns hold exactly the defined offsets in anchor order, so equal
	// offsets are equal columns.
	for v := 0; v < a.cols.n; v++ {
		ca, cb := a.cols.col(v), b.cols.col(v)
		if len(ca) != len(cb) {
			return false
		}
		if len(ca) > 0 && &ca[0] == &cb[0] {
			continue // copy-on-write chains share unchanged columns
		}
		if !slices.Equal(ca, cb) {
			return false
		}
	}
	return true
}
