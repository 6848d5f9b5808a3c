package relsched_test

import (
	"errors"
	"testing"

	"repro/internal/cg"
	"repro/internal/paperex"
	"repro/internal/relsched"
)

// TestMakeWellPosed_MinimumSerialization verifies Theorem 7 exhaustively
// on the Fig. 3(b) graph: among ALL well-posed serial-compatible graphs
// (every subset of legal anchor→vertex serialization edges), the one
// makeWellposed produces has pointwise-minimal longest paths.
func TestMakeWellPosed_MinimumSerialization(t *testing.T) {
	base := paperex.Fig3b()
	repaired, _, err := relsched.MakeWellPosed(base)
	if err != nil {
		t.Fatalf("MakeWellPosed: %v", err)
	}
	repairedLen := lengthMatrix(t, repaired)

	// Candidate serialization edges: anchor -> any non-anchor vertex it
	// cannot already reach and that does not precede it.
	type cand struct{ a, v cg.VertexID }
	var cands []cand
	for _, a := range base.Anchors() {
		if a == base.Source() {
			continue
		}
		for _, vx := range base.Vertices() {
			if vx.ID == a || vx.ID == base.Source() || base.IsAnchor(vx.ID) {
				continue
			}
			if base.IsForwardPredecessor(vx.ID, a) || base.IsForwardPredecessor(a, vx.ID) {
				continue
			}
			cands = append(cands, cand{a, vx.ID})
		}
	}
	if len(cands) == 0 || len(cands) > 12 {
		t.Fatalf("unexpected candidate count %d", len(cands))
	}

	found := false
	for mask := 1; mask < 1<<len(cands); mask++ {
		g := base.Clone()
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				g.AddSerialization(c.a, c.v)
			}
		}
		if g.Freeze() != nil || relsched.CheckWellPosed(g) != nil {
			continue
		}
		found = true
		alt := lengthMatrix(t, g)
		for key, l := range repairedLen {
			if la, ok := alt[key]; ok && la < l {
				t.Fatalf("serialization subset %b has shorter path %v: %d < %d", mask, key, la, l)
			}
		}
	}
	if !found {
		t.Fatal("no alternative well-posed serialization found; test vacuous")
	}
}

// lengthMatrix returns longest path lengths between all vertex pairs
// (unbounded weights 0), keyed by [2]IDs.
func lengthMatrix(t *testing.T, g *cg.Graph) map[[2]cg.VertexID]int {
	t.Helper()
	out := map[[2]cg.VertexID]int{}
	for _, v := range g.Vertices() {
		dist, ok := g.LongestFrom(v.ID)
		if !ok {
			t.Fatal("positive cycle in candidate")
		}
		for _, w := range g.Vertices() {
			if dist[w.ID] != cg.Unreachable {
				out[[2]cg.VertexID{v.ID, w.ID}] = dist[w.ID]
			}
		}
	}
	return out
}

// TestLatency exercises source-to-sink latency evaluation under profiles.
func TestLatency(t *testing.T) {
	g := paperex.Fig2()
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	a := g.VertexByName("a")
	for _, tc := range []struct {
		da   int
		want int
	}{
		// Sink is v4 (delay 1): T(v4) = max(8, δ(a)+5) + 1.
		{0, 9},
		{3, 9},
		{10, 16},
	} {
		p := relsched.DelayProfile{g.Source(): 0, a: tc.da}
		lat, err := s.Latency(p, relsched.IrredundantAnchors)
		if err != nil {
			t.Fatalf("Latency: %v", err)
		}
		if lat != tc.want {
			t.Errorf("latency with δ(a)=%d: got %d, want %d", tc.da, lat, tc.want)
		}
	}
	// Missing profile entry is an error.
	if _, err := s.Latency(relsched.DelayProfile{g.Source(): 0}, relsched.FullAnchors); err == nil {
		t.Error("Latency should fail on incomplete profile")
	}
}

// TestOffsetQueriesEdgeCases covers the defensive paths of the accessor
// API.
func TestOffsetQueriesEdgeCases(t *testing.T) {
	g := paperex.Fig2()
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	v1 := g.VertexByName("v1")
	a := g.VertexByName("a")
	// v1 is not an anchor: querying offsets "from v1" must fail.
	if _, ok := s.Offset(v1, a, relsched.FullAnchors); ok {
		t.Error("Offset from non-anchor should report !ok")
	}
	// a is not in A(v1): σ_a(v1) undefined.
	if _, ok := s.Offset(a, v1, relsched.FullAnchors); ok {
		t.Error("σ_a(v1) should be undefined")
	}
	if _, ok := s.MaxOffset(v1, relsched.FullAnchors); ok {
		t.Error("MaxOffset of a non-anchor should report !ok")
	}
	if m, ok := s.MaxOffset(g.Source(), relsched.FullAnchors); !ok || m != 8 {
		t.Errorf("σ_v0^max = %d,%v, want 8", m, ok)
	}
	if sum := s.SumOfMaxOffsets(relsched.FullAnchors); sum != 8+5 {
		t.Errorf("Σσ^max = %d, want 13", sum)
	}
	if gm := s.GlobalMaxOffset(relsched.FullAnchors); gm != 8 {
		t.Errorf("global max = %d, want 8", gm)
	}
}

// TestClassicalScheduleRejectsUnbounded pins the baseline's domain.
func TestClassicalScheduleRejectsUnbounded(t *testing.T) {
	g := paperex.Fig2() // contains anchor a
	if _, err := relsched.ClassicalSchedule(g); !errors.Is(err, relsched.ErrUnfeasible) {
		t.Errorf("ClassicalSchedule on unbounded graph: %v, want ErrUnfeasible", err)
	}
}

// TestTightEqualityConstraints covers min = max (exact separation), which
// creates a zero-length cycle — legal and schedulable.
func TestTightEqualityConstraints(t *testing.T) {
	g := cg.New()
	x := g.AddOp("x", cg.Cycles(1))
	y := g.AddOp("y", cg.Cycles(1))
	sink := g.AddOp("sink", cg.Cycles(0))
	g.AddSeq(g.Source(), x)
	g.AddSeq(g.Source(), y)
	g.AddSeq(x, sink)
	g.AddSeq(y, sink)
	g.AddMin(x, y, 4)
	g.AddMax(x, y, 4)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	ox, _ := s.Offset(g.Source(), x, relsched.FullAnchors)
	oy, _ := s.Offset(g.Source(), y, relsched.FullAnchors)
	if oy != ox+4 {
		t.Errorf("exact separation violated: σ(y)=%d, σ(x)=%d", oy, ox)
	}
}

// TestZeroMaxConstraintSimultaneity: u = 0 forces simultaneous starts
// when paired with a zero minimum, per the paper's remark that l_ij = 0
// can be modeled by u_ji = 0.
func TestZeroMaxConstraintSimultaneity(t *testing.T) {
	g := cg.New()
	x := g.AddOp("x", cg.Cycles(2))
	y := g.AddOp("y", cg.Cycles(3))
	sink := g.AddOp("sink", cg.Cycles(0))
	g.AddSeq(g.Source(), x)
	g.AddSeq(g.Source(), y)
	g.AddSeq(x, sink)
	g.AddSeq(y, sink)
	g.AddMax(x, y, 0) // σ(y) ≤ σ(x)
	g.AddMax(y, x, 0) // σ(x) ≤ σ(y)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	ox, _ := s.Offset(g.Source(), x, relsched.FullAnchors)
	oy, _ := s.Offset(g.Source(), y, relsched.FullAnchors)
	if ox != oy {
		t.Errorf("simultaneity violated: σ(x)=%d σ(y)=%d", ox, oy)
	}
}

// TestComputeWellPosedConvenience covers repair then schedule:
// MakeWellPosed followed by Compute.
func TestComputeWellPosedConvenience(t *testing.T) {
	wp, added, err := relsched.MakeWellPosed(paperex.Fig3b())
	if err != nil {
		t.Fatalf("MakeWellPosed: %v", err)
	}
	if added != 1 {
		t.Errorf("added = %d, want 1", added)
	}
	s, err := relsched.Compute(wp)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if err := relsched.Verify(s); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if _, _, err := relsched.MakeWellPosed(paperex.Fig3a()); err == nil {
		t.Error("MakeWellPosed should fail on Fig3a")
	}
}
