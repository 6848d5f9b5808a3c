package relsched

import (
	"fmt"

	"repro/internal/cg"
)

// This file implements schedule provenance: for every vertex, *why* its
// offsets are what they are. Theorem 1 states that the minimum offset
// σ_a(v) is the longest-path length from anchor a to v in the constraint
// graph, so every offset has a witness — a path from the anchor whose
// edge weights sum exactly to σ_a(v). The provenance layer reconstructs
// that witness (the binding chain), the per-anchor slack, and the
// margin of every maximum timing constraint on the vertex, turning the
// opaque offset table into an explanation an outer synthesis loop (or a
// human running `relsched explain`) can act on.

// ChainStep is one edge of a binding chain, in anchor-to-vertex order.
type ChainStep struct {
	// EdgeIndex is the edge's index in Schedule.G.
	EdgeIndex int
	// From and To are the edge's endpoints as stored in the graph (for a
	// MaxConstraint edge that is the reversed direction of Table I).
	From, To cg.VertexID
	// Kind records the edge's Table I origin.
	Kind cg.EdgeKind
	// Weight is the weight the longest path uses: Edge.MinWeight(), i.e.
	// 0 for unbounded edges and -u for backward edges.
	Weight int
	// Unbounded marks edges whose true weight is the tail's δ; the
	// longest path counts them at their minimum 0.
	Unbounded bool
}

// AnchorBinding explains one offset σ_a(v): the constraint chain that
// forces it and how much room it leaves.
type AnchorBinding struct {
	// Anchor is the anchor a.
	Anchor cg.VertexID
	// Offset is σ_a(v) from the schedule's offset table.
	Offset int
	// Chain is a longest path from the anchor to the vertex achieving
	// Offset: replaying its Weights sums exactly to Offset. Empty when
	// the vertex is the anchor itself.
	Chain []ChainStep
	// Slack is the per-anchor slack
	//   length(a, sink) − length(a, v) − length(v, sink)
	// — how many cycles v may slip in anchor a's frame without
	// stretching the a-relative latency. Non-negative on any feasible
	// schedule.
	Slack int
	// ViaMax reports that the chain passes through a backward
	// (maximum-constraint) edge: the offset was forced up by a maximum
	// timing constraint during readjustment, not by a dependency.
	ViaMax bool
}

// MaxConstraintStatus reports one maximum timing constraint bounding a
// vertex: σ(v) ≤ σ(Other) + U, stored as the backward edge (v → Other)
// with weight -U.
type MaxConstraintStatus struct {
	// EdgeIndex is the backward edge's index in Schedule.G.
	EdgeIndex int
	// Other is the constraint's reference vertex.
	Other cg.VertexID
	// U is the constraint bound u_ij ≥ 0.
	U int
	// Margin is min over common anchors of σ_a(Other) + U − σ_a(v): the
	// cycles of headroom before the constraint is violated. 0 on a
	// satisfied schedule means the constraint is tight; negative never
	// happens on a schedule Compute returned.
	Margin int
	// Tight reports Margin == 0: the constraint binds the schedule.
	Tight bool
}

// VertexProvenance is the full explanation of one vertex's schedule.
type VertexProvenance struct {
	// Vertex is the explained vertex.
	Vertex cg.VertexID
	// Slack is the overall slack of the vertex: the minimum per-anchor
	// slack over every anchor reaching it (matching
	// Schedule.ComputeSlack). 0 marks a critical vertex.
	Slack int
	// Bindings holds one AnchorBinding per anchor in the vertex's anchor
	// set under the requested mode, in anchor-list order.
	Bindings []AnchorBinding
	// MaxConstraints lists every maximum timing constraint whose
	// constrained vertex is this one, with its margin.
	MaxConstraints []MaxConstraintStatus
}

// Explainer answers provenance queries against one schedule. Building it
// runs one reverse longest-path pass (O(|V|·|E|)); each Explain call
// then costs O(|V|+|E|) for the chain search. An Explainer is immutable
// after construction and safe for concurrent use.
type Explainer struct {
	s *Schedule
	// toSink[v] is the longest path v → sink (unbounded weights at 0).
	toSink []int
	slack  *SlackInfo
}

// NewExplainer builds an Explainer for the schedule.
func (s *Schedule) NewExplainer() *Explainer {
	return &Explainer{
		s:      s,
		toSink: reverseLongestTo(s.G, s.G.Sink()),
		slack:  s.ComputeSlack(),
	}
}

// Explain reconstructs the provenance of one vertex under the given
// anchor mode. It fails only when a binding chain cannot be found, which
// would indicate a corrupted offset table.
func (ex *Explainer) Explain(v cg.VertexID, mode AnchorMode) (*VertexProvenance, error) {
	s := ex.s
	g := s.G
	sink := g.Sink()
	vp := &VertexProvenance{Vertex: v, Slack: ex.slack.Slack[v]}
	for ai, a := range s.Info.List {
		if !s.inMode(ai, v, mode) {
			continue
		}
		off := s.cols.at(int(v), ai)
		if off == NoOffset {
			// Anchor-set membership without an offset cannot happen on a
			// well-posed scheduled graph; guard anyway.
			continue
		}
		chain, err := s.bindingChain(ai, v)
		if err != nil {
			return nil, err
		}
		b := AnchorBinding{Anchor: a, Offset: off, Chain: chain}
		for _, st := range chain {
			if st.Kind == cg.MaxConstraint {
				b.ViaMax = true
				break
			}
		}
		// σ is length(a, ·) (Theorem 3), and off is defined here.
		if sink != cg.None && s.cols.at(int(sink), ai) != NoOffset && ex.toSink[v] != cg.Unreachable {
			b.Slack = s.cols.at(int(sink), ai) - off - ex.toSink[v]
		}
		vp.Bindings = append(vp.Bindings, b)
	}
	vp.MaxConstraints = ex.maxConstraints(v)
	return vp, nil
}

// ExplainAll explains every vertex of the schedule, in vertex-ID order.
func (ex *Explainer) ExplainAll(mode AnchorMode) ([]*VertexProvenance, error) {
	out := make([]*VertexProvenance, 0, ex.s.G.N())
	for v := 0; v < ex.s.G.N(); v++ {
		vp, err := ex.Explain(cg.VertexID(v), mode)
		if err != nil {
			return nil, err
		}
		out = append(out, vp)
	}
	return out, nil
}

// maxConstraints collects the maximum timing constraints bounding v. The
// backward edge stored for AddMax(from, to, u) runs to → from with
// weight -u, so v is the constrained vertex of edges leaving it
// backward.
func (ex *Explainer) maxConstraints(v cg.VertexID) []MaxConstraintStatus {
	s := ex.s
	g := s.G
	var out []MaxConstraintStatus
	for _, ei := range g.OutEdges(v) {
		e := g.Edge(int(ei))
		if e.Kind != cg.MaxConstraint {
			continue
		}
		st := MaxConstraintStatus{EdgeIndex: int(ei), Other: e.To, U: -e.Weight}
		margin, any := 0, false
		for ai := range s.Info.List {
			ov, oo := s.cols.at(int(v), ai), s.cols.at(int(e.To), ai)
			if ov == NoOffset || oo == NoOffset {
				continue
			}
			// Satisfaction of the backward edge: σ_a(e.To) ≥ σ_a(v) + e.Weight,
			// i.e. margin σ_a(e.To) − e.Weight − σ_a(v) = σ_a(Other) + U − σ_a(v).
			m := oo - e.Weight - ov
			if !any || m < margin {
				margin, any = m, true
			}
		}
		if any {
			st.Margin = margin
			st.Tight = margin == 0
		}
		out = append(out, st)
	}
	return out
}

// bindingChain finds a longest path from anchor index ai to v whose edge
// weights sum to the scheduled offset σ_a(v) — the witness of Theorem 1.
// At the scheduler's fixpoint every defined offset satisfies
// σ_a(v) = max over in-edges (σ_a(u) + w(e)), so a depth-first search
// backwards over "tight" edges (those achieving equality) must reach the
// anchor; the visited set keeps zero-weight cycles from looping.
func (s *Schedule) bindingChain(ai int, v cg.VertexID) ([]ChainStep, error) {
	g := s.G
	a := s.Info.List[ai]
	if v == a {
		return nil, nil
	}
	visited := make([]bool, g.N())
	off := func(u cg.VertexID) int { return s.cols.at(int(u), ai) }
	var steps []ChainStep
	var dfs func(u cg.VertexID) bool
	dfs = func(u cg.VertexID) bool {
		if u == a {
			return true
		}
		if visited[u] {
			return false
		}
		visited[u] = true
		for _, ei := range g.InEdges(u) {
			e := g.Edge(int(ei))
			if off(e.From) == NoOffset || off(e.From)+e.MinWeight() != off(u) {
				continue
			}
			if dfs(e.From) {
				steps = append(steps, ChainStep{
					EdgeIndex: int(ei),
					From:      e.From,
					To:        e.To,
					Kind:      e.Kind,
					Weight:    e.MinWeight(),
					Unbounded: e.Unbounded,
				})
				return true
			}
		}
		return false
	}
	if !dfs(v) {
		return nil, fmt.Errorf("relsched: no binding chain from anchor %d to vertex %d for offset %d (offset table inconsistent)",
			a, v, off(v))
	}
	return steps, nil
}
