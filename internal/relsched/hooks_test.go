package relsched_test

import (
	"testing"

	"repro/internal/paperex"
	"repro/internal/relsched"
)

// TestScheduleHooks checks that the trace hooks see exactly the loop shape
// the scheduler executed: one RelaxationSweep and one Readjustment per
// iteration, the final readjustment raising nothing (convergence), and a
// schedule identical to the untraced path.
func TestScheduleHooks(t *testing.T) {
	g := paperex.Fig10()
	info, err := relsched.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	var sweeps []int
	var raised []int
	h := &relsched.Hooks{
		RelaxationSweep: func(it int) { sweeps = append(sweeps, it) },
		Readjustment:    func(n int) { raised = append(raised, n) },
	}
	s, err := relsched.ComputeFromAnalysis(info, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != s.Iterations {
		t.Errorf("hook saw %d sweeps, schedule reports %d iterations", len(sweeps), s.Iterations)
	}
	for i, it := range sweeps {
		if it != i+1 {
			t.Errorf("sweep %d reported iteration %d", i, it)
		}
	}
	if len(raised) != len(sweeps) {
		t.Fatalf("readjustment fired %d times for %d sweeps", len(raised), len(sweeps))
	}
	if last := raised[len(raised)-1]; last != 0 {
		t.Errorf("final readjustment raised %d offsets, want 0 (convergence)", last)
	}
	// Fig. 10 needs more than one iteration, so the non-final
	// readjustments must have raised something.
	if s.Iterations < 2 {
		t.Fatalf("Fig. 10 converged in %d iteration(s); the fixture no longer exercises readjustment", s.Iterations)
	}
	for i := 0; i < len(raised)-1; i++ {
		if raised[i] == 0 {
			t.Errorf("readjustment %d raised 0 offsets but the loop continued", i)
		}
	}
	cold, err := relsched.ComputeFromAnalysis(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !relsched.EqualOffsets(s, cold) {
		t.Error("traced schedule differs from untraced schedule")
	}
	// Nil hooks — both the struct and individual fields — are valid.
	if _, err := relsched.ComputeFromAnalysis(info, nil); err != nil {
		t.Errorf("nil hooks: %v", err)
	}
	if _, err := relsched.ComputeFromAnalysis(info, &relsched.Hooks{}); err != nil {
		t.Errorf("empty hooks: %v", err)
	}
}

// TestMakeWellPosedHooks checks that SerializationPass reports every
// makeWellposed sweep and that the reported additions sum to the returned
// edge count.
func TestMakeWellPosedHooks(t *testing.T) {
	var passes []int
	h := &relsched.Hooks{SerializationPass: func(n int) { passes = append(passes, n) }}
	wp, added, err := relsched.MakeWellPosedTraced(paperex.Fig3b(), h)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("Fig. 3(b) needed no serialization edges; fixture is broken")
	}
	sum := 0
	for _, n := range passes {
		sum += n
	}
	if sum != added {
		t.Errorf("passes %v sum to %d, MakeWellPosed reports %d edges", passes, sum, added)
	}
	if last := passes[len(passes)-1]; last != 0 {
		t.Errorf("final pass added %d edges, want 0 (fixpoint)", last)
	}
	if err := relsched.CheckWellPosed(wp); err != nil {
		t.Errorf("repaired graph not well-posed: %v", err)
	}
	// An already well-posed graph reports a single zero pass.
	passes = nil
	if _, added, err := relsched.MakeWellPosedTraced(paperex.Fig3c(), h); err != nil || added != 0 {
		t.Fatalf("Fig3c: added=%d err=%v", added, err)
	}
	if len(passes) != 1 || passes[0] != 0 {
		t.Errorf("well-posed graph passes = %v, want [0]", passes)
	}
}
