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

// This file pins the fused check+analysis entry points
// (CheckWellPosedAnalyzed → AnalyzeFromSets) to the two-pass pipeline
// (CheckWellPosed, then Analyze) they replace on the engine's hot
// path: same verdicts, same anchor sets, and byte-identical schedules
// on every graph of the eight paper designs and a seeded random corpus.

// TestAnalyzeFromSets is the equivalence sweep: for every corpus graph,
// the fused path must reject exactly the graphs CheckWellPosed rejects,
// and on acceptance produce an analysis and schedule identical to the
// Analyze/Compute pipeline.
func TestAnalyzeFromSets(t *testing.T) {
	corpus := make(map[string]*cg.Graph)
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for i, gname := range r.Order {
			corpus[fmt.Sprintf("%s/%d:%s", d.Name, i, gname)] = r.Graphs[gname].CG
		}
	}
	rng := rand.New(rand.NewSource(23))
	cfg := randgraph.Default()
	for i := 0; i < 40; i++ {
		corpus[fmt.Sprintf("rand/%d", i)] = randgraph.Generate(cfg, rng)
	}

	for label, g := range corpus {
		sets, fusedErr := relsched.CheckWellPosedAnalyzed(g)
		checkErr := relsched.CheckWellPosed(g)
		if (fusedErr == nil) != (checkErr == nil) {
			t.Fatalf("%s: CheckWellPosedAnalyzed err = %v, CheckWellPosed err = %v", label, fusedErr, checkErr)
		}
		if fusedErr != nil {
			if fusedErr.Error() != checkErr.Error() {
				t.Errorf("%s: verdicts differ: %v vs %v", label, fusedErr, checkErr)
			}
			continue
		}

		fused, err := relsched.AnalyzeFromSets(g, sets)
		if err != nil {
			t.Fatalf("%s: AnalyzeFromSets: %v", label, err)
		}
		oracle, err := relsched.Analyze(g)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", label, err)
		}
		ff, fr, fi := fused.TotalSizes()
		of, or, oi := oracle.TotalSizes()
		if len(fused.List) != len(oracle.List) || ff != of || fr != or || fi != oi {
			t.Fatalf("%s: analyses differ: fused %v, oracle %v", label, fused, oracle)
		}

		got, err := relsched.ComputeFromAnalysis(fused, nil)
		if err != nil {
			t.Fatalf("%s: schedule from fused analysis: %v", label, err)
		}
		want, err := relsched.Compute(g)
		if err != nil {
			t.Fatalf("%s: Compute: %v", label, err)
		}
		agreeEverywhere(t, label, got, want)
	}
}
