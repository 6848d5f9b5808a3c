package relsched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cg"
	"repro/internal/designs"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// This file is the differential sweep guarding the optimized scheduling
// core (CSR iteration, flat pooled offset arenas, anchor-parallel stages)
// against the two retained oracles:
//
//   - ReferenceCompute — the seed (pre-optimization) pipeline kept
//     verbatim in reference.go;
//   - DecompositionSchedule — the independent per-anchor longest-path
//     construction of Theorem 3.
//
// All three must agree on every offset, under every anchor mode, on the
// eight paper designs and on a seeded random corpus.

var allModes = []relsched.AnchorMode{
	relsched.FullAnchors, relsched.RelevantAnchors, relsched.IrredundantAnchors,
}

// designCorpus returns every constraint graph of the eight paper designs,
// labelled design/index.
func designCorpus(tb testing.TB) map[string]*cg.Graph {
	tb.Helper()
	corpus := make(map[string]*cg.Graph)
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			tb.Fatalf("%s: %v", d.Name, err)
		}
		for i, gname := range r.Order {
			corpus[fmt.Sprintf("%s/%d:%s", d.Name, i, gname)] = r.Graphs[gname].CG
		}
	}
	return corpus
}

// agreeEverywhere fails the test unless the two schedules assign identical
// offsets — both on the raw full-anchor-set table and through the Offset
// projection of every anchor mode.
func agreeEverywhere(t *testing.T, label string, got, want *relsched.Schedule) {
	t.Helper()
	if !relsched.EqualOffsets(got, want) {
		t.Fatalf("%s: offset tables differ", label)
	}
	g := got.G
	for _, mode := range allModes {
		for _, a := range got.Info.List {
			for v := 0; v < g.N(); v++ {
				go1, ok1 := got.Offset(a, cg.VertexID(v), mode)
				go2, ok2 := want.Offset(a, cg.VertexID(v), mode)
				if ok1 != ok2 || go1 != go2 {
					t.Fatalf("%s: mode %v: σ_%d(%d) = (%d,%v), oracle (%d,%v)",
						label, mode, a, v, go1, ok1, go2, ok2)
				}
			}
		}
	}
}

// TestDifferential_PaperDesigns pins the optimized pipeline to both
// oracles on every graph of the eight paper designs.
func TestDifferential_PaperDesigns(t *testing.T) {
	for label, g := range designCorpus(t) {
		s, err := relsched.Compute(g)
		if err != nil {
			t.Fatalf("%s: optimized: %v", label, err)
		}
		ref, err := relsched.ReferenceCompute(g)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if s.Iterations != ref.Iterations {
			t.Errorf("%s: iterations %d, reference %d", label, s.Iterations, ref.Iterations)
		}
		agreeEverywhere(t, label+" vs reference", s, ref)
		dec, err := relsched.DecompositionSchedule(s.Info)
		if err != nil {
			t.Fatalf("%s: decomposition: %v", label, err)
		}
		agreeEverywhere(t, label+" vs decomposition", s, dec)
		if err := relsched.Verify(s); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// TestDifferential_RandomCorpus sweeps seeded random graphs across several
// generator shapes; every schedulable graph must agree with both oracles,
// and the optimized and reference pipelines must fail together on the
// rest.
func TestDifferential_RandomCorpus(t *testing.T) {
	shapes := []randgraph.Config{
		randgraph.Default(),
		{N: 12, AnchorProb: 0.4, MaxDelay: 3, MaxFanIn: 2, MinConstraints: 2, MaxConstraints: 3, MaxSlack: 1},
		{N: 120, AnchorProb: 0.08, MaxDelay: 6, MaxFanIn: 4, MinConstraints: 8, MaxConstraints: 8, MaxSlack: 4},
		{N: 60, AnchorProb: 0.25, MaxDelay: 4, MaxFanIn: 3, MinConstraints: 6, MaxConstraints: 10, MaxSlack: 0},
	}
	for si, cfg := range shapes {
		for seed := int64(0); seed < 40; seed++ {
			label := fmt.Sprintf("shape%d/seed%d", si, seed)
			g := randgraph.Generate(cfg, rand.New(rand.NewSource(seed)))
			s, err := relsched.Compute(g)
			ref, refErr := relsched.ReferenceCompute(g)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: optimized err %v, reference err %v", label, err, refErr)
			}
			if err != nil {
				continue // both rejected the graph; nothing to compare
			}
			if s.Iterations != ref.Iterations {
				t.Errorf("%s: iterations %d, reference %d", label, s.Iterations, ref.Iterations)
			}
			agreeEverywhere(t, label+" vs reference", s, ref)
			dec, err := relsched.DecompositionSchedule(s.Info)
			if err != nil {
				t.Fatalf("%s: decomposition: %v", label, err)
			}
			agreeEverywhere(t, label+" vs decomposition", s, dec)
		}
	}
}

// TestScheduleColdAllocs pins the steady-state allocation count of the
// pooled cold scheduling stage: the Schedule header, the packed σ pairs
// and their two-level table of column views (the dense offset arena and
// the active-anchor bitset recycle through the pool), plus the completed
// analysis — its header copy, the irredundant-set arena (two
// allocations) and the domination test's scratch list. A regression here
// means the sync.Pool lifecycle broke.
func TestScheduleColdAllocs(t *testing.T) {
	r, err := designs.Frisc().Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	g := r.Graphs[r.Order[0]].CG
	info, err := relsched.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	relsched.ComputeFromAnalysis(info, nil) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := relsched.ComputeFromAnalysis(info, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("cold schedule stage allocates %.1f objects/run, want <= 8", allocs)
	}
}

// TestDeepChainIterativeTraversals is the stack-safety regression test for
// the traversals converted from recursion to explicit stacks (relevant
// anchor flood, forward reachability, cycle reachability): a 100k-vertex
// sequencing chain — recursion depth would equal |V| — must schedule
// correctly.
func TestDeepChainIterativeTraversals(t *testing.T) {
	const n, every = 100_000, 20_000
	g := randgraph.Chain(n, every)
	if got, want := len(g.Anchors()), n/every+1; got != want {
		t.Fatalf("anchors = %d, want %d", got, want)
	}
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (no backward edges)", s.Iterations)
	}
	// σ_source(sink) counts one cycle per bounded operation on the chain:
	// the n/every anchors contribute 0 (unbounded weights floor to 0).
	sink := g.Sink()
	if off, ok := s.Offset(g.Source(), sink, relsched.FullAnchors); !ok || off != n-n/every {
		t.Errorf("σ_source(sink) = %d,%v, want %d", off, ok, n-n/every)
	}
	// The last anchor is the final chain vertex; the sink is one unbounded
	// edge behind it.
	last := g.Anchors()[len(g.Anchors())-1]
	if off, ok := s.Offset(last, sink, relsched.FullAnchors); !ok || off != 0 {
		t.Errorf("σ_last(sink) = %d,%v, want 0", off, ok)
	}
	if err := relsched.Verify(s); err != nil {
		t.Error(err)
	}
}
