package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cg"
	"repro/internal/designs"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// buildFig2ish constructs a small well-posed graph with one anchor; two
// calls produce structurally identical but distinct graph values.
func buildFig2ish() *cg.Graph {
	g := cg.New()
	a := g.AddOp("a", cg.UnboundedDelay())
	v1 := g.AddOp("v1", cg.Cycles(2))
	v2 := g.AddOp("v2", cg.Cycles(2))
	v3 := g.AddOp("v3", cg.Cycles(5))
	v4 := g.AddOp("v4", cg.Cycles(1))
	g.AddSeq(g.Source(), a)
	g.AddSeq(g.Source(), v1)
	g.AddSeq(v1, v2)
	g.AddSeq(a, v3)
	g.AddSeq(v3, v4)
	g.AddSeq(v2, v4)
	g.AddMin(g.Source(), v3, 3)
	g.AddMax(v1, v2, 2)
	return g
}

func TestFingerprintStable(t *testing.T) {
	g1 := buildFig2ish()
	g2 := buildFig2ish()
	if FingerprintOf(g1) != FingerprintOf(g2) {
		t.Fatal("structurally identical graphs got different fingerprints")
	}
	// Freezing does not change content, so it must not change the key.
	g2.MustFreeze()
	if FingerprintOf(g1) != FingerprintOf(g2) {
		t.Fatal("freezing changed the fingerprint")
	}
	// A clone has the same content and must hash identically.
	if FingerprintOf(g1) != FingerprintOf(g1.Clone()) {
		t.Fatal("clone changed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := FingerprintOf(buildFig2ish())
	mutations := map[string]func(g *cg.Graph){
		"add vertex":          func(g *cg.Graph) { g.AddOp("extra", cg.Cycles(1)) },
		"add sequencing edge": func(g *cg.Graph) { g.AddSeq(g.VertexByName("v1"), g.VertexByName("v3")) },
		"add min constraint":  func(g *cg.Graph) { g.AddMin(g.VertexByName("v1"), g.VertexByName("v4"), 1) },
		"add max constraint":  func(g *cg.Graph) { g.AddMax(g.VertexByName("v3"), g.VertexByName("v4"), 9) },
	}
	for name, mutate := range mutations {
		g := buildFig2ish()
		mutate(g)
		if FingerprintOf(g) == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	// Different delay on one vertex must change the key even though the
	// topology is identical.
	g := cg.New()
	g.AddOp("x", cg.Cycles(3))
	h := cg.New()
	h.AddOp("x", cg.Cycles(4))
	if FingerprintOf(g) == FingerprintOf(h) {
		t.Error("delay change: fingerprint unchanged")
	}
	// Bounded 0 vs unbounded is the anchor/non-anchor distinction
	// (Definition 2) and must be distinguished even though both weigh 0
	// in longest paths.
	u := cg.New()
	u.AddOp("x", cg.UnboundedDelay())
	z := cg.New()
	z.AddOp("x", cg.Cycles(0))
	if FingerprintOf(u) == FingerprintOf(z) {
		t.Error("unbounded vs zero delay: fingerprint unchanged")
	}
}

// TestFingerprintMemo pins the digest memo on the graph: a second
// fingerprint reads it, and a mutation clears it.
func TestFingerprintMemo(t *testing.T) {
	g := buildFig2ish()
	fp1 := fingerprint(g)
	if fp1 != FingerprintOf(g) {
		t.Fatal("memoized fingerprint differs from direct hash")
	}
	gen := g.Generation()
	// Memoized path: same generation, same answer.
	if fingerprint(g) != fp1 {
		t.Fatal("memo lookup changed the fingerprint")
	}
	if g.Generation() != gen {
		t.Fatal("fingerprinting mutated the generation")
	}
	// A mutation must clear the memo.
	g.AddOp("late", cg.Cycles(2))
	if g.Generation() == gen {
		t.Fatal("mutation did not bump the generation")
	}
	if fingerprint(g) == fp1 {
		t.Fatal("stale memoized fingerprint served after mutation")
	}
}

// referenceFingerprintOf is the writer FingerprintOf once was: the same
// byte stream, fed to a hash.Hash in five 8-byte Write calls per edge.
// FingerprintOf must produce its digests bit for bit.
func referenceFingerprintOf(g *cg.Graph) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(g.N()))
	for _, v := range g.Vertices() {
		writeU64(uint64(len(v.Name)))
		h.Write([]byte(v.Name))
		if v.Delay.Bounded() {
			writeU64(1)
			writeU64(uint64(v.Delay.Value()))
		} else {
			writeU64(0)
		}
	}
	writeU64(uint64(g.M()))
	for _, e := range g.Edges() {
		writeU64(uint64(e.From))
		writeU64(uint64(e.To))
		writeU64(uint64(e.Kind))
		writeU64(uint64(int64(e.Weight)))
		if e.Unbounded {
			writeU64(1)
		} else {
			writeU64(0)
		}
	}
	var f Fingerprint
	copy(f[:], h.Sum(nil))
	return f
}

// TestFingerprintMatchesReference pins FingerprintOf's digests to the
// reference writer on the eight designs, on randgraph graphs of N=3, 40,
// 200 and 1000, and on a graph whose names are multi-byte UTF-8, so
// every cache key and flight record fingerprint keeps its value.
func TestFingerprintMatchesReference(t *testing.T) {
	var graphs []*cg.Graph
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for _, name := range r.Order {
			graphs = append(graphs, r.Graphs[name].CG)
		}
	}
	for _, n := range []int{3, 40, 200, 1000} {
		cfg := randgraph.Default()
		cfg.N = n
		graphs = append(graphs, randgraph.Generate(cfg, rand.New(rand.NewSource(int64(n)))))
	}
	g := cg.New()
	a := g.AddOp("αβγ", cg.UnboundedDelay())
	b := g.AddOp("読み込み", cg.Cycles(3))
	c := g.AddOp("x y", cg.Cycles(1))
	g.AddSeq(g.Source(), a)
	g.AddSeq(a, b)
	g.AddSeq(b, c)
	g.AddMax(a, c, 7)
	graphs = append(graphs, g.MustFreeze())
	for i, g := range graphs {
		if got, want := FingerprintOf(g), referenceFingerprintOf(g); got != want {
			t.Errorf("graph %d (|V|=%d): FingerprintOf %s, reference %s", i, g.N(), got, want)
		}
	}
}

// TestScheduleAfterRevertDelta pins that a graph edited, reverted and
// edited again is not answered from the first edit's cache entry.
// RevertDelta restores the generation, so after the second edit one
// generation names two contents, and a memo keyed by (graph,
// generation) would serve the schedule of the first.
func TestScheduleAfterRevertDelta(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx := context.Background()
	g := cg.New()
	a := g.AddOp("a", cg.Cycles(2))
	b := g.AddOp("b", cg.Cycles(3))
	c := g.AddOp("c", cg.Cycles(1))
	v0 := g.Source()
	g.AddSeq(v0, a)
	g.AddSeq(a, b)
	g.AddSeq(b, c)
	g.AddSeq(v0, c)
	if res := e.Schedule(ctx, Job{ID: "base", Graph: g}); res.Err != nil {
		t.Fatal(res.Err)
	}
	d, err := g.ApplyEdit(cg.AddMinEdit(v0, c, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Schedule(ctx, Job{ID: "min10", Graph: g}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := g.RevertDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ApplyEdit(cg.AddMinEdit(v0, c, 20)); err != nil {
		t.Fatal(err)
	}
	res := e.Schedule(ctx, Job{ID: "min20", Graph: g})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := relsched.ReferenceCompute(g)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Schedule.Offset(v0, c, relsched.FullAnchors)
	if ref, _ := want.Offset(v0, c, relsched.FullAnchors); got != ref || got != 20 {
		t.Fatalf("σ_v0(c) = %d (cache hit %v), ReferenceCompute gives %d", got, res.CacheHit, ref)
	}
}

// TestFingerprintMemoConcurrent has workers hash and schedule one frozen
// graph at once: several may store its digest, and every one must read
// the graph's own fingerprint.
func TestFingerprintMemoConcurrent(t *testing.T) {
	g := buildFig2ish().MustFreeze()
	want := FingerprintOf(g)
	e := New(Options{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if fp := fingerprint(g); fp != want {
					t.Errorf("fingerprint %s, want %s", fp, want)
					return
				}
				if res := e.Schedule(context.Background(), Job{Graph: g}); res.Err != nil {
					t.Error(res.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
