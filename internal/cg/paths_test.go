package cg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cg"
	"repro/internal/designs"
	"repro/internal/randgraph"
)

// TestLongestPathsFrozenMatchEdgeList is the differential test of the
// frozen path solvers, which relax over the CSR's forward edges in
// topological order and then its backward edges: on every graph of the
// eight designs and on random graphs at N=40 and N=200, feasible and
// unfeasible alike, LongestFrom from every vertex and HasPositiveCycle
// must equal those of an unfrozen Clone, which relaxes over the edge list
// in insertion order. Where LongestFrom reports a positive cycle its
// distances are not meaningful, so only the verdict is compared there.
func TestLongestPathsFrozenMatchEdgeList(t *testing.T) {
	graphs := make(map[string]*cg.Graph)
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for i, name := range r.Order {
			graphs[fmt.Sprintf("%s/%d:%s", d.Name, i, name)] = r.Graphs[name].CG
		}
	}
	for _, n := range []int{40, 200} {
		cfg := randgraph.Default()
		cfg.N, cfg.MinConstraints, cfg.MaxConstraints = n, n/10, n/10
		for seed := int64(0); seed < 6; seed++ {
			g := randgraph.Generate(cfg, rand.New(rand.NewSource(seed)))
			label := fmt.Sprintf("N=%d/seed=%d", n, seed)
			graphs[label] = g
			// A maximum constraint one below the weight of a bounded
			// forward edge it spans closes a cycle of length 1.
			u := g.Clone()
			for _, e := range g.Edges() {
				if e.Kind.Forward() && e.MinWeight() > 0 {
					u.AddMax(e.From, e.To, e.MinWeight()-1)
					break
				}
			}
			graphs[label+"/unfeasible"] = u
		}
	}
	unfeasible := 0
	for label, g := range graphs {
		if err := g.Freeze(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		flat := g.Clone()
		if flat.CSR() != nil {
			t.Fatalf("%s: the clone is frozen", label)
		}
		got, want := g.HasPositiveCycle(), flat.HasPositiveCycle()
		if got != want {
			t.Fatalf("%s: HasPositiveCycle = %v, edge list %v", label, got, want)
		}
		if got {
			unfeasible++
		}
		for v := 0; v < g.N(); v++ {
			src := cg.VertexID(v)
			dg, okG := g.LongestFrom(src)
			dw, okW := flat.LongestFrom(src)
			if okG != okW {
				t.Fatalf("%s: LongestFrom(%s) ok = %v, edge list %v", label, g.Name(src), okG, okW)
			}
			if okG && !slices.Equal(dg, dw) {
				t.Fatalf("%s: LongestFrom(%s) = %v, edge list %v", label, g.Name(src), dg, dw)
			}
		}
	}
	if unfeasible < 12 {
		t.Errorf("%d of the graphs hold a positive cycle, want at least the 12 unfeasible draws", unfeasible)
	}
}
