package relsched

import (
	"repro/internal/cg"
)

// SlackInfo reports the scheduling freedom of each operation relative to
// the minimum schedule of Theorem 8: how many
// cycles its start may slip past the minimum schedule without stretching
// the source-to-sink latency (for any fixed profile of unbounded delays)
// or violating a timing constraint. Operations with zero slack are
// critical: delaying them delays the circuit.
//
// In the relative formulation, the slack of vertex v with respect to
// anchor a is
//
//	slack_a(v) = length(a, sink) − length(a, v) − length(v, sink)
//
// with unbounded weights at 0, and the overall slack is the minimum over
// the anchors that reach v. This generalizes classical ASAP/ALAP slack to
// per-anchor coordinates: delaying v by its slack keeps every offset
// within the latest feasible schedule of the same latency.
type SlackInfo struct {
	G *cg.Graph
	// Slack[v] is the minimum slack of v over all anchors reaching it;
	// the source and sink have slack 0 by construction.
	Slack []int
}

// ComputeSlack derives slack from a schedule, using the length(·,·)
// longest paths of Definition 3. Vertices that cannot reach
// the sink through forward edges would be structurally odd in a polar
// graph; they are assigned zero slack defensively.
func (s *Schedule) ComputeSlack() *SlackInfo {
	g := s.G
	sink := g.Sink()
	out := &SlackInfo{G: g, Slack: make([]int, g.N())}
	const unset = int(^uint(0) >> 1)
	for i := range out.Slack {
		out.Slack[i] = unset
	}
	// toSink[v]: longest path v -> sink over all edges, unbounded at 0.
	// Computed per anchor domain via one reverse pass on the full graph:
	// longest path to sink is the longest path from sink in the reversed
	// graph; reuse LongestFrom by scanning from every vertex is O(V·E),
	// so instead run a single reverse Bellman-Ford.
	toSink := reverseLongestTo(g, sink)
	// σ_a(v) is length(a, v) (Theorem 3), so the offsets supply the
	// anchor-side lengths; NoOffset marks the vertices a cannot reach.
	for ai := range s.Info.List {
		sinkDist := s.cols.at(int(sink), ai)
		if sinkDist == NoOffset {
			continue
		}
		for v := 0; v < s.cols.n; v++ {
			d := s.cols.at(v, ai)
			if d == NoOffset || toSink[v] == cg.Unreachable {
				continue
			}
			if sl := sinkDist - d - toSink[v]; sl < out.Slack[v] {
				out.Slack[v] = sl
			}
		}
	}
	for i := range out.Slack {
		if out.Slack[i] == unset {
			out.Slack[i] = 0
		}
	}
	return out
}

// Critical returns the vertices with zero slack, in ID order — the
// operations whose offsets (Definition 5) cannot slip without stretching
// the latency.
func (si *SlackInfo) Critical() []cg.VertexID {
	var out []cg.VertexID
	for v, sl := range si.Slack {
		if sl == 0 {
			out = append(out, cg.VertexID(v))
		}
	}
	return out
}

// reverseLongestTo computes, for each vertex, the longest weighted path
// from it to dst (unbounded weights 0), by Bellman–Ford on reversed
// edges. Unreachable vertices get cg.Unreachable.
func reverseLongestTo(g *cg.Graph, dst cg.VertexID) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = cg.Unreachable
	}
	dist[dst] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for _, e := range g.Edges() {
			if dist[e.To] == cg.Unreachable {
				continue
			}
			if d := dist[e.To] + e.MinWeight(); d > dist[e.From] {
				dist[e.From] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
