package relsched

import (
	"fmt"

	"repro/internal/cg"
)

// DelayProfile assigns a concrete execution delay to every unbounded-delay
// vertex (an "input sequence" in the paper's terms). Bounded vertices keep
// their compile-time delays. The source vertex's entry gives the
// activation delay of the graph and is usually 0.
type DelayProfile map[cg.VertexID]int

// ZeroProfile returns the profile with every unbounded delay at its
// minimum value 0 — the input sequence under which the relative schedule
// achieves the minimum latency of Theorem 3.
func ZeroProfile(g *cg.Graph) DelayProfile {
	p := make(DelayProfile)
	for _, a := range g.Anchors() {
		p[a] = 0
	}
	return p
}

// delay returns the concrete execution delay of v under the profile.
func (p DelayProfile) delay(g *cg.Graph, v cg.VertexID) (int, error) {
	d := g.Vertex(v).Delay
	if d.Bounded() {
		return d.Value(), nil
	}
	val, ok := p[v]
	if !ok {
		return 0, fmt.Errorf("relsched: profile missing delay for unbounded vertex %d (%s)", v, g.Name(v))
	}
	if val < 0 {
		return 0, fmt.Errorf("relsched: negative delay %d for vertex %d", val, v)
	}
	return val, nil
}

// StartTimes evaluates the concrete start time T(v) of every vertex for a
// given delay profile, using the anchor sets selected by mode:
//
//	T(v) = max_{a ∈ AS(v)} ( T(a) + δ(a) + σ_a(v) ),   T(v0) = 0.
//
// Theorems 4 and 6 guarantee the same result for all three modes on
// well-posed graphs with minimum offsets.
func (s *Schedule) StartTimes(p DelayProfile, mode AnchorMode) ([]int, error) {
	g := s.G
	t := make([]int, g.N())
	for _, v := range g.TopoForward() {
		if v == g.Source() {
			t[v] = 0
			continue
		}
		best := 0
		set := s.Info.Full[v]
		switch mode {
		case RelevantAnchors:
			set = s.Info.Relevant[v]
		case IrredundantAnchors:
			set = s.Info.Irredundant[v]
		}
		var perr error
		set.ForEach(func(ai int) {
			a := s.Info.List[ai]
			d, err := p.delay(g, a)
			if err != nil {
				perr = err
				return
			}
			if cand := t[a] + d + s.cols.at(int(v), ai); cand > best {
				best = cand
			}
		})
		if perr != nil {
			return nil, perr
		}
		t[v] = best
	}
	return t, nil
}

// ConstraintViolation describes one edge inequality (a Table I constraint)
// that a set of start times fails to satisfy under a concrete delay
// profile.
type ConstraintViolation struct {
	Edge     int
	From, To cg.VertexID
	// Required is the minimum legal T(To) implied by the edge; Actual is
	// the observed T(To).
	Required, Actual int
}

// Error renders the violation.
func (v ConstraintViolation) Error() string {
	return fmt.Sprintf("relsched: edge %d (%d->%d) violated: T=%d < required %d",
		v.Edge, v.From, v.To, v.Actual, v.Required)
}

// CheckStartTimes verifies that concrete start times satisfy every edge
// inequality of the graph (the timing constraints of §III, Table I) under
// the given profile: sequencing and minimum
// constraints T(j) ≥ T(i) + w (with w = δ(i) for unbounded edges) and
// maximum constraints via their negative-weight backward edges. It returns
// all violations, or nil when the start times are consistent.
func CheckStartTimes(g *cg.Graph, p DelayProfile, t []int) ([]ConstraintViolation, error) {
	var out []ConstraintViolation
	for i, e := range g.Edges() {
		w := e.Weight
		if e.Unbounded {
			d, err := p.delay(g, e.From)
			if err != nil {
				return nil, err
			}
			w = d
		}
		if t[e.To] < t[e.From]+w {
			out = append(out, ConstraintViolation{
				Edge: i, From: e.From, To: e.To,
				Required: t[e.From] + w, Actual: t[e.To],
			})
		}
	}
	return out, nil
}

// Latency returns the source-to-sink latency T(sink) + δ(sink) under the
// profile and mode — the latency reported per graph in Table III. For graphs whose sink has unbounded delay the sink
// delay from the profile is included.
func (s *Schedule) Latency(p DelayProfile, mode AnchorMode) (int, error) {
	t, err := s.StartTimes(p, mode)
	if err != nil {
		return 0, err
	}
	sink := s.G.Sink()
	d, err := p.delay(s.G, sink)
	if err != nil {
		return 0, err
	}
	return t[sink] + d, nil
}
