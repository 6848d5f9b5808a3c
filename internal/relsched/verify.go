package relsched

import (
	"fmt"

	"repro/internal/cg"
)

// Verify checks the internal consistency of a computed schedule against
// the theory of Section III:
//
//   - every edge inequality σ_a(v_i) + w ≤ σ_a(v_j) holds for each anchor
//     common to both endpoints (the definition of a relative schedule);
//   - every offset equals the longest path from its anchor with unbounded
//     weights at 0 (Theorem 3 — minimality);
//   - IR(v) ⊆ A(v) and R(v) ⊆ A(v) (Theorem 5 / Lemma 4).
//
// It returns the first discrepancy found, or nil. Verify exists for tests
// and for defense-in-depth in tools; it is O(|A|·|V|·|E|).
func Verify(s *Schedule) error {
	g := s.G
	for ei, e := range g.Edges() {
		w := e.MinWeight()
		for ai := range s.Info.List {
			from, okF := s.sigma(ai, e.From)
			to, okT := s.sigma(ai, e.To)
			if !okF || !okT {
				continue
			}
			if from+w > to {
				return fmt.Errorf("relsched: schedule violates edge %d (%s): σ_%s(%s)=%d + %d > σ_%s(%s)=%d",
					ei, e, g.Name(s.Info.List[ai]), g.Name(e.From), from, w,
					g.Name(s.Info.List[ai]), g.Name(e.To), to)
			}
		}
	}
	for ai, a := range s.Info.List {
		dist, ok := g.LongestFrom(a)
		if !ok {
			return ErrUnfeasible
		}
		for v := 0; v < g.N(); v++ {
			if s.Info.Full[v].Has(ai) && dist[v] == cg.Unreachable {
				return fmt.Errorf("relsched: anchor %s in A(%s) but no path", g.Name(a), g.Name(cg.VertexID(v)))
			}
			if got := s.cols.at(v, ai); got != dist[v] {
				return fmt.Errorf("relsched: σ_%s(%s)=%d differs from longest path %d (Theorem 3)",
					g.Name(a), g.Name(cg.VertexID(v)), got, dist[v])
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if !s.Info.Irredundant[v].SubsetOf(s.Info.Full[v]) {
			return fmt.Errorf("relsched: IR(%s) ⊄ A(%s)", g.Name(cg.VertexID(v)), g.Name(cg.VertexID(v)))
		}
		if !s.Info.Relevant[v].SubsetOf(s.Info.Full[v]) {
			return fmt.Errorf("relsched: R(%s) ⊄ A(%s) — graph ill-posed?", g.Name(cg.VertexID(v)), g.Name(cg.VertexID(v)))
		}
	}
	return nil
}
