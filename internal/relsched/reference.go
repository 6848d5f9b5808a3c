package relsched

import (
	"repro/internal/bitset"
	"repro/internal/cg"
)

// This file retains the seed (pre-CSR) scheduling pipeline verbatim in
// spirit: closure-based adjacency iteration, per-anchor [][]int offset
// tables allocated per job, a per-schedule forward-reachability flood per
// anchor, and Edge-struct Bellman–Ford. It is deliberately excluded from
// every optimization the flat-arena engine received, and serves two
// purposes:
//
//   - a differential-testing oracle: the optimized scheduler must produce
//     byte-identical offset tables (see differential_test.go);
//   - the timing baseline behind the cold_baseline_ns / cold_speedup
//     fields of BENCH_engine.json, so the speedup the PR claims is always
//     measured against the code it replaced rather than against a moving
//     target.
//
// Keep this file dumb. Do not let CSR fast paths leak in.

// referenceSchedule is the reference pipeline's offset table, convertible
// to a *Schedule for comparison with EqualOffsets.
type referenceSchedule struct {
	info       *AnchorInfo
	off        [][]int
	iterations int
}

// ReferenceCompute runs the retained seed implementation of the full
// pipeline on g: well-posedness check, anchor analysis, and iterative
// incremental scheduling, all over the mutable-graph adjacency (no CSR,
// no arena, no pooling). The result is a *Schedule
// structurally identical to what Compute returns (same Iterations, same
// offsets) on every well-posed graph.
func ReferenceCompute(g *cg.Graph) (*Schedule, error) {
	if err := referenceCheckWellPosed(g); err != nil {
		return nil, err
	}
	info, err := referenceAnalyze(g)
	if err != nil {
		return nil, err
	}
	return referenceScheduleFrom(info)
}

// referenceCheckWellPosed is the seed CheckWellPosed: Edge-struct cycle
// detection and closure-swept anchor sets feeding the containment check.
// ReferenceCompute must not route through the shared CheckWellPosed, whose
// anchorSets now walks the CSR — that would fold optimized code into the
// cold_baseline_ns measurement.
func referenceCheckWellPosed(g *cg.Graph) error {
	if err := g.Freeze(); err != nil {
		return err
	}
	if referenceHasPositiveCycle(g) {
		return ErrUnfeasible
	}
	return checkContainment(g, referenceAnchorSets(g))
}

// ReferenceComputeFromAnalysis is the scheduling stage of ReferenceCompute
// against an existing analysis — the seed counterpart of
// ComputeFromAnalysis, for benchmarks that time the cold schedule stage in
// isolation.
func ReferenceComputeFromAnalysis(info *AnchorInfo) (*Schedule, error) {
	return referenceScheduleFrom(info)
}

// referenceAnalyze is the seed Analyze: sequential per-anchor Bellman–Ford
// over Edge structs, whose longest paths feed the irredundant sets — an
// oracle independent of the σ table the optimized pipeline derives them
// from.
func referenceAnalyze(g *cg.Graph) (*AnchorInfo, error) {
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	if referenceHasPositiveCycle(g) {
		return nil, ErrUnfeasible
	}
	ai := referenceAnchorSets(g)
	ai.referenceRelevantAnchors()
	longest := make([][]int, len(ai.List))
	for i, a := range ai.List {
		d, ok := referenceLongestFrom(g, a)
		if !ok {
			return nil, ErrUnfeasible
		}
		longest[i] = d
	}
	ai.referenceIrredundant(longest)
	return ai, nil
}

// referenceIrredundant is the seed minimumAnchor: the Definition 11
// domination test over the per-anchor longest-path rows, every anchor
// pair tested. It shares no code with the optimized test the scheduler
// runs over its σ columns.
func (ai *AnchorInfo) referenceIrredundant(longest [][]int) {
	g := ai.G
	ai.Irredundant = bitset.NewArena(g.N(), len(ai.List))
	var full []int
	for v := 0; v < g.N(); v++ {
		ir := ai.Irredundant[v]
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
	}
}

// referenceAnchorSets is the seed anchorSets: topological sweep through the
// per-edge closure iterator.
func referenceAnchorSets(g *cg.Graph) *AnchorInfo {
	list := g.Anchors()
	ai := &AnchorInfo{
		G:     g,
		List:  list,
		Index: make(map[cg.VertexID]int, len(list)),
		Full:  make([]bitset.Set, g.N()),
	}
	for i, a := range list {
		ai.Index[a] = i
	}
	for v := range ai.Full {
		ai.Full[v] = bitset.New(len(list))
	}
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

// referenceRelevantAnchors is the seed recursive-flood relevantAnchors.
// (Recursion depth scales with |V|; the reference corpus stays small
// enough for the goroutine stack.)
func (ai *AnchorInfo) referenceRelevantAnchors() {
	g := ai.G
	ai.Relevant = make([]bitset.Set, g.N())
	for v := range ai.Relevant {
		ai.Relevant[v] = bitset.New(len(ai.List))
	}
	seen := make([]bool, g.N())
	for idx, a := range ai.List {
		for i := range seen {
			seen[i] = false
		}
		seen[a] = true
		var flood func(v cg.VertexID)
		flood = func(v cg.VertexID) {
			if seen[v] {
				return
			}
			seen[v] = true
			ai.Relevant[v].Add(idx)
			for _, ei := range g.OutEdges(v) {
				e := g.Edge(int(ei))
				if e.Unbounded {
					continue
				}
				flood(e.To)
			}
		}
		for _, ei := range g.OutEdges(a) {
			e := g.Edge(int(ei))
			if !e.Unbounded {
				continue
			}
			flood(e.To)
		}
	}
}

// referenceLongestFrom is the seed LongestFrom: Bellman–Ford over the
// Edge-struct slice.
func referenceLongestFrom(g *cg.Graph, src cg.VertexID) ([]int, bool) {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = cg.Unreachable
	}
	dist[src] = 0
	edges := g.Edges()
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for _, e := range edges {
			if dist[e.From] == cg.Unreachable {
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
	for _, e := range edges {
		if dist[e.From] == cg.Unreachable {
			continue
		}
		if dist[e.From]+e.MinWeight() > dist[e.To] {
			return dist, false
		}
	}
	return dist, true
}

// referenceHasPositiveCycle is the seed HasPositiveCycle over Edge structs.
func referenceHasPositiveCycle(g *cg.Graph) bool {
	n := g.N()
	dist := make([]int, n)
	edges := g.Edges()
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range edges {
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

// referenceScheduleFrom is the seed iterative scheduler: fresh [][]int
// rows, per-anchor ReachableForward floods in init, vertex-outer closure
// relaxation sweeps, and Edge-struct readjustment.
func referenceScheduleFrom(info *AnchorInfo) (*Schedule, error) {
	g := info.G
	r := &referenceSchedule{info: info}
	r.initOffsets()
	backward := g.BackwardEdges()
	maxIter := len(backward) + 1
	for c := 1; c <= maxIter; c++ {
		r.incrementalOffset()
		r.iterations = c
		if r.readjustOffsets(backward) == 0 {
			return r.toSchedule(), nil
		}
	}
	return nil, ErrInconsistent
}

func (r *referenceSchedule) initOffsets() {
	g := r.info.G
	nA := len(r.info.List)
	r.off = make([][]int, nA)
	for ai, a := range r.info.List {
		row := make([]int, g.N())
		fwd := referenceReachableForward(g, a)
		for v := range row {
			if fwd[v] {
				row[v] = 0
			} else {
				row[v] = NoOffset
			}
		}
		r.off[ai] = row
	}
}

// referenceReachableForward is the seed recursive forward flood — the
// per-anchor, per-schedule traversal that seeds every forward successor
// of the anchor at offset 0. (Graph.ReachableForward now walks the CSR on
// frozen graphs, so the baseline keeps its own copy.)
func referenceReachableForward(g *cg.Graph, v cg.VertexID) []bool {
	seen := make([]bool, g.N())
	var flood func(u cg.VertexID)
	flood = func(u cg.VertexID) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, ei := range g.OutEdges(u) {
			if e := g.Edge(int(ei)); e.Kind.Forward() {
				flood(e.To)
			}
		}
	}
	flood(v)
	return seen
}

// incrementalOffset is one seed IncrementalOffset sweep: vertices in
// topological order, forward out-edges through the closure, all anchors
// relaxed at every edge.
func (r *referenceSchedule) incrementalOffset() {
	g := r.info.G
	nA := len(r.info.List)
	for _, p := range g.TopoForward() {
		g.ForwardOut(p, func(_ int, e cg.Edge) bool {
			w := e.MinWeight()
			for ai := 0; ai < nA; ai++ {
				f := r.off[ai][p]
				if f == NoOffset {
					continue
				}
				if d := f + w; d > r.off[ai][e.To] {
					r.off[ai][e.To] = d
				}
			}
			return true
		})
	}
}

// readjustOffsets is one seed ReadjustOffset pass over the backward edges.
func (r *referenceSchedule) readjustOffsets(backward []int) int {
	g := r.info.G
	nA := len(r.info.List)
	raised := 0
	for _, ei := range backward {
		e := g.Edge(ei)
		for ai := 0; ai < nA; ai++ {
			f := r.off[ai][e.From]
			if f == NoOffset {
				continue
			}
			if d := f + e.Weight; d > r.off[ai][e.To] {
				r.off[ai][e.To] = d
				raised++
			}
		}
	}
	return raised
}

// toSchedule packs the row table into a Schedule's columns so the
// result is directly comparable (EqualOffsets, Offset, renderers) with the
// optimized pipeline's output. An analysis from Analyze carries no
// irredundant sets; they are then derived from the reference offsets.
func (r *referenceSchedule) toSchedule() *Schedule {
	g := r.info.G
	nA, nV := len(r.info.List), g.N()
	off := make([]int, nA*nV)
	for ai, row := range r.off {
		for v, o := range row {
			off[v*nA+ai] = o
		}
	}
	active := definedBits(off, nA, nV)
	if r.info.Irredundant == nil {
		return newSchedule(r.info, r.iterations, off, active, nil)
	}
	return &Schedule{G: g, Info: r.info, Iterations: r.iterations, cols: packCols(off, active, nA, nV), gen: g.Generation()}
}
