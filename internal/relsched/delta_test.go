package relsched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/paperex"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// This file pins the reactive delta layer (Schedule.Apply) to the seed
// oracle: after EVERY edit in randomized add/remove/insert sequences, the
// incrementally maintained schedule must agree with a cold
// ReferenceCompute of the edited graph — on the raw offset table, on
// every anchor-mode projection, and on the anchor-set analysis itself.
// Rejected edits must leave the live schedule untouched and the graph
// reverted, so the chain continues from the same state.

// agreeWithReference cross-checks the delta schedule against a cold
// reference run on the (shared, edited) graph.
func agreeWithReference(t *testing.T, label string, s *relsched.Schedule) {
	t.Helper()
	ref, err := relsched.ReferenceCompute(s.G)
	if err != nil {
		t.Fatalf("%s: ReferenceCompute on live graph failed: %v", label, err)
	}
	agreeEverywhere(t, label, s, ref)
	if err := relsched.Verify(s); err != nil {
		t.Fatalf("%s: Verify: %v", label, err)
	}
	// Verify reads offsets through the accessor, which cannot tell a
	// stored NoOffset pair from an absent one; the packed form is checked
	// on the table itself.
	if err := relsched.CheckColumns(s); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// The analysis tables must match set-for-set, not just through the
	// Offset projection: Full (Theorem 2 containment), Relevant
	// (Definitions 8–9), Irredundant (Definition 11).
	for v := 0; v < s.G.N(); v++ {
		if !s.Info.Full[v].Equal(ref.Info.Full[v]) {
			t.Fatalf("%s: Full[%d] = %v, reference %v", label, v, s.Info.Full[v].Elements(), ref.Info.Full[v].Elements())
		}
		if !s.Info.Relevant[v].Equal(ref.Info.Relevant[v]) {
			t.Fatalf("%s: Relevant[%d] = %v, reference %v", label, v, s.Info.Relevant[v].Elements(), ref.Info.Relevant[v].Elements())
		}
		if !s.Info.Irredundant[v].Equal(ref.Info.Irredundant[v]) {
			t.Fatalf("%s: Irredundant[%d] = %v, reference %v", label, v, s.Info.Irredundant[v].Elements(), ref.Info.Irredundant[v].Elements())
		}
	}
}

// randomEdit draws one edit biased toward additions, with removals and
// the occasional vertex insertion mixed in. Most draws are rejectable
// (cycles, polarity, ill-posedness) — that is the point: the sequence
// exercises revert as hard as apply.
func randomEdit(rng *rand.Rand, g *cg.Graph) cg.Edit {
	n := g.N()
	pick := func() (cg.VertexID, cg.VertexID) {
		return cg.VertexID(rng.Intn(n)), cg.VertexID(rng.Intn(n))
	}
	switch rng.Intn(10) {
	case 0, 1, 2:
		f, to := pick()
		return cg.AddMinEdit(f, to, rng.Intn(4))
	case 3, 4, 5:
		f, to := pick()
		return cg.AddMaxEdit(f, to, 1+rng.Intn(12))
	case 6, 7:
		return cg.RemoveEdgeEdit(rng.Intn(g.M()))
	case 8:
		f, to := pick()
		return cg.AddSerializationEdit(f, to)
	default:
		f, to := pick()
		return cg.InsertOpEdit("", cg.Cycles(rng.Intn(3)), f, to)
	}
}

// TestDeltaEditSequenceDifferential is the main oracle: randomized edit
// sequences over random graphs, per-edit equality with the reference
// pipeline.
func TestDeltaEditSequenceDifferential(t *testing.T) {
	cfg := randgraph.Default()
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := randgraph.Generate(cfg, rng)
			s, err := relsched.Compute(g)
			if err != nil {
				t.Skipf("seed graph unschedulable: %v", err)
			}
			applied, rejected := 0, 0
			for step := 0; step < 40; step++ {
				ed := randomEdit(rng, g)
				gen := g.Generation()
				m, n := g.M(), g.N()
				next, err := s.Apply(ed)
				label := fmt.Sprintf("step %d (%v)", step, ed.Op)
				if err != nil {
					rejected++
					if g.Generation() != gen || g.M() != m || g.N() != n {
						t.Fatalf("%s: rejected edit mutated the graph", label)
					}
					// The live schedule must still be the graph's valid
					// schedule, and still fresh for the next edit.
					agreeWithReference(t, label+" after reject", s)
					continue
				}
				applied++
				agreeWithReference(t, label, next)
				s = next
			}
			if applied == 0 {
				t.Error("edit sequence applied nothing; generator too hostile")
			}
			t.Logf("applied %d, rejected %d", applied, rejected)
		})
	}
}

// TestDeltaTransactionalMultiEdit checks the all-or-nothing contract: a
// batch whose last edit fails must unwind the earlier edits.
func TestDeltaTransactionalMultiEdit(t *testing.T) {
	g := paperex.Fig10()
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	v1 := g.VertexByName("v1")
	v2 := g.VertexByName("v2")
	v3 := g.VertexByName("v3")
	v7 := g.VertexByName("v7")
	gen := g.Generation()
	m := g.M()

	// Edit 1 alone is fine; edit 2 is unfeasible (max 3 against min 4).
	_, err = s.Apply(
		cg.AddMaxEdit(v2, v7, 4),
		cg.AddMaxEdit(v1, v3, 3),
	)
	if !errors.Is(err, relsched.ErrUnfeasible) {
		t.Fatalf("batch: got %v, want ErrUnfeasible", err)
	}
	if g.M() != m || g.Generation() != gen {
		t.Fatalf("failed batch left edits behind (M %d→%d, gen %d→%d)", m, g.M(), gen, g.Generation())
	}
	agreeWithReference(t, "after failed batch", s)

	// The same batch without the poison pill applies atomically.
	next, err := s.Apply(
		cg.AddMaxEdit(v2, v7, 4),
		cg.AddMinEdit(v1, v3, 9),
	)
	if err != nil {
		t.Fatalf("good batch: %v", err)
	}
	agreeWithReference(t, "after good batch", next)
}

// TestDeltaInsertOp covers the vertex-insertion path: bounded inserts
// warm-start from pred (anchors pinned), unbounded inserts are typed
// anchor-drift rejections.
func TestDeltaInsertOp(t *testing.T) {
	g := paperex.Fig10()
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	v2 := g.VertexByName("v2")
	v7 := g.VertexByName("v7")

	next, err := s.Apply(cg.InsertOpEdit("patch", cg.Cycles(2), v2, v7))
	if err != nil {
		t.Fatalf("bounded insert: %v", err)
	}
	agreeWithReference(t, "bounded insert", next)

	var drift *relsched.AnchorDriftError
	if _, err := next.Apply(cg.InsertOpEdit("osc", cg.UnboundedDelay(), v2, v7)); !errors.As(err, &drift) {
		t.Fatalf("unbounded insert: got %v, want AnchorDriftError", err)
	}
	agreeWithReference(t, "after drift reject", next)
}

// TestDeltaStaleAndFork pins the generation contract: only the newest
// schedule applies deltas, and Fork yields an independently editable
// graph for schedules held by caches.
func TestDeltaStaleAndFork(t *testing.T) {
	g := paperex.Fig10()
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	v2 := g.VertexByName("v2")
	v7 := g.VertexByName("v7")

	f, err := s.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if f.G == s.G {
		t.Fatal("Fork shares the graph")
	}
	mBase := g.M()
	if _, err := f.Apply(cg.AddMaxEdit(v2, v7, 4)); err != nil {
		t.Fatalf("Apply on fork: %v", err)
	}
	if g.M() != mBase {
		t.Error("editing the fork mutated the original graph")
	}

	next, err := s.Apply(cg.AddMaxEdit(v2, v7, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(cg.AddMinEdit(v2, v7, 1)); !errors.Is(err, relsched.ErrStaleSchedule) {
		t.Errorf("stale Apply: got %v, want ErrStaleSchedule", err)
	}
	if _, err := s.Fork(); !errors.Is(err, relsched.ErrStaleSchedule) {
		t.Errorf("stale Fork: got %v, want ErrStaleSchedule", err)
	}
	agreeWithReference(t, "newest after stale probes", next)
}

// TestDeltaConcurrentReaders runs readers on the base schedule while a
// chain of deltas — constraint additions mixed with bounded vertex
// inserts — applies: the copy-on-write contract says base reads never
// observe the edits, and readers that loop over vertices stay within the
// base's own vertex count. Run under -race.
func TestDeltaConcurrentReaders(t *testing.T) {
	g := randgraph.Chain(2000, 500)
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	anchors := s.Info.List
	wantSum := s.SumOfMaxOffsets(relsched.FullAnchors)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%256 == 0 {
					if got := s.SumOfMaxOffsets(relsched.FullAnchors); got != wantSum {
						t.Errorf("base Σσmax moved from %d to %d", wantSum, got)
						return
					}
					continue
				}
				a := anchors[rng.Intn(len(anchors))]
				v := cg.VertexID(rng.Intn(2000))
				if o, ok := s.Offset(a, v, relsched.FullAnchors); ok && o < 0 {
					t.Errorf("negative offset %d", o)
					return
				}
			}
		}(r)
	}
	cur := s
	rng := rand.New(rand.NewSource(99))
	inserts := 0
	for i := 0; i < 30; i++ {
		lo := cg.VertexID(1 + rng.Intn(1000))
		hi := lo + cg.VertexID(1+rng.Intn(900))
		ed := cg.AddMaxEdit(lo, hi, 4000)
		if i%3 == 0 && g.Vertex(lo).Delay.Bounded() {
			ed = cg.InsertOpEdit("", cg.Cycles(1), lo, hi)
		}
		next, err := cur.Apply(ed)
		if err != nil {
			continue
		}
		if ed.Op == cg.EditInsertOp {
			inserts++
		}
		cur = next
	}
	close(stop)
	wg.Wait()
	if inserts == 0 {
		t.Error("the edit chain applied no insert")
	}
	if err := relsched.Verify(cur); err != nil {
		t.Fatalf("final Verify: %v", err)
	}
}

// TestDeltaStaleBaseReaders pins readers of a base schedule after Apply
// inserted a vertex: every reader must loop over the schedule's own
// vertices, not the live graph's — one past its tables would panic — so
// the base keeps answering with its own values.
func TestDeltaStaleBaseReaders(t *testing.T) {
	g := paperex.Fig10()
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	type reading struct {
		sums, maxes [3]int
		tables      [3]string
		full, rel   int
		irr         int
		str         string
	}
	read := func() reading {
		var r reading
		for i, mode := range allModes {
			r.sums[i] = s.SumOfMaxOffsets(mode)
			r.maxes[i] = s.GlobalMaxOffset(mode)
			var b strings.Builder
			if err := cgio.WriteOffsets(&b, s, mode); err != nil {
				t.Fatal(err)
			}
			r.tables[i] = b.String()
		}
		r.full, r.rel, r.irr = s.Info.TotalSizes()
		r.str = s.Info.String()
		return r
	}
	before := read()
	next, err := s.Apply(cg.InsertOpEdit("patch", cg.Cycles(2), g.VertexByName("v2"), g.VertexByName("v7")))
	if err != nil {
		t.Fatal(err)
	}
	if after := read(); after != before {
		t.Errorf("base readings moved across the insert: %+v, then %+v", before, after)
	}
	x := cg.VertexID(g.N() - 1)
	if _, ok := s.Offset(g.Source(), x, relsched.FullAnchors); ok {
		t.Error("the base schedule reports an offset for the vertex a newer schedule inserted")
	}
	if _, ok := next.Offset(g.Source(), x, relsched.FullAnchors); !ok {
		t.Error("the new schedule has no offset for the inserted vertex")
	}
	agreeWithReference(t, "after insert", next)
}

// chainEdit draws one edit for TestDeltaInsertChains. An insert is a
// bounded operation between a vertex and a later one (in topological
// order) whose anchor set contains the first's, so most inserts apply;
// the other edits are minimum constraints along the order, maximum
// constraints, and removals, many of which are refused.
func chainEdit(rng *rand.Rand, s *relsched.Schedule, insert bool) cg.Edit {
	g := s.G
	topo := g.TopoForward()
	ordered := func() (cg.VertexID, cg.VertexID) {
		i := rng.Intn(len(topo) - 1)
		j := i + 1 + rng.Intn(len(topo)-1-i)
		return topo[i], topo[j]
	}
	switch k := rng.Intn(3); {
	case insert:
		for try := 0; ; try++ {
			pred, succ := ordered()
			if try == 64 || s.Info.Full[pred].SubsetOf(s.Info.Full[succ]) {
				return cg.InsertOpEdit("", cg.Cycles(rng.Intn(4)), pred, succ)
			}
		}
	case k == 0:
		u, v := ordered()
		return cg.AddMinEdit(u, v, rng.Intn(4))
	case k == 1:
		u, v := ordered()
		return cg.AddMaxEdit(u, v, 4+rng.Intn(16))
	default:
		return cg.RemoveEdgeEdit(rng.Intn(g.M()))
	}
}

// TestDeltaInsertChains is the insert-heavy differential test: edit
// chains where two edits in five are bounded inserts, at N=40 and N=200.
// After every edit the schedule must agree with ReferenceCompute of the
// edited graph on offsets, Full, Relevant and Irredundant, and every
// refused edit must be refused by ReferenceCompute on a clone too.
func TestDeltaInsertChains(t *testing.T) {
	for _, tc := range []struct{ n, seeds, steps int }{{40, 12, 60}, {200, 4, 40}} {
		cfg := randgraph.Default()
		cfg.N = tc.n
		cfg.MinConstraints, cfg.MaxConstraints = tc.n/10, tc.n/10
		for seed := int64(0); seed < int64(tc.seeds); seed++ {
			t.Run(fmt.Sprintf("N=%d/seed=%d", tc.n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := randgraph.Generate(cfg, rng)
				s, err := relsched.Compute(g)
				if err != nil {
					t.Skipf("seed graph unschedulable: %v", err)
				}
				drawn, applied := 0, 0
				for step := 0; step < tc.steps; step++ {
					ed := chainEdit(rng, s, step%5 < 2)
					label := fmt.Sprintf("step %d (%v)", step, ed.Op)
					if ed.Op == cg.EditInsertOp {
						drawn++
					}
					gen, m, n := g.Generation(), g.M(), g.N()
					next, err := s.Apply(ed)
					if err != nil {
						if g.Generation() != gen || g.M() != m || g.N() != n {
							t.Fatalf("%s: refused edit mutated the graph", label)
						}
						c := g.Clone()
						if cerr := c.Freeze(); cerr != nil {
							t.Fatal(cerr)
						}
						if _, cerr := c.ApplyEdit(ed); cerr == nil {
							if _, cerr = relsched.ReferenceCompute(c); cerr == nil {
								t.Fatalf("%s: refused with %v, but the reference schedules the edited graph", label, err)
							}
						}
						agreeWithReference(t, label+" after refusal", s)
						continue
					}
					if ed.Op == cg.EditInsertOp {
						applied++
					}
					agreeWithReference(t, label, next)
					s = next
				}
				if drawn*4 < tc.steps {
					t.Errorf("inserts were %d of %d edits, want at least 25%%", drawn, tc.steps)
				}
				if applied*2 < drawn {
					t.Errorf("only %d of %d inserts applied", applied, drawn)
				}
			})
		}
	}
}

// TestInsertAllocs pins the cost of a bounded insert on an N=2000 graph
// shaped like the whatif-edit workload (200 timing constraints). An insert
// whose x→succ edge raises no offset grows the tables by one O(|A|)
// column and O(|V|) of headers, far below the |A|·|V| σ table a cold
// rebuild allocates. It never reaches the cold pipeline: the hooks see
// the delta path's single warm-start pass where a cold schedule of this
// graph reports one sweep per iteration, and every base column stays
// shared. The insert is measured after a first insert has grown the
// graph's own slices, which a chain of inserts amortizes.
func TestInsertAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2000 schedule")
	}
	cfg := randgraph.Default()
	cfg.N, cfg.MinConstraints, cfg.MaxConstraints = 2000, 200, 200
	rng := rand.New(rand.NewSource(1))
	var sweeps, readjusts []int
	hooks := &relsched.Hooks{
		RelaxationSweep: func(i int) { sweeps = append(sweeps, i) },
		Readjustment:    func(r int) { readjusts = append(readjusts, r) },
	}
	var base *relsched.Schedule
	for base == nil {
		g := randgraph.Generate(cfg, rng)
		if relsched.CheckWellPosed(g) != nil {
			continue
		}
		info, err := relsched.Analyze(g)
		if err != nil {
			continue
		}
		base, _ = relsched.ComputeFromAnalysis(info, hooks)
	}
	if base.Iterations < 2 {
		t.Fatalf("cold schedule converged in %d iteration; the hook check needs at least 2", base.Iterations)
	}
	g, info := base.G, base.Info
	nA, nV := info.NumAnchors(), g.N()
	var sites [][2]cg.VertexID
	for len(sites) < 256 {
		// randgraph's forward edges run from lower to higher IDs.
		u := cg.VertexID(1 + rng.Intn(cfg.N-1))
		v := u + 1 + cg.VertexID(rng.Intn(cfg.N-int(u)))
		if g.Vertex(u).Delay.Bounded() && info.Full[u].SubsetOf(info.Full[v]) {
			sites = append(sites, [2]cg.VertexID{u, v})
		}
	}
	// warm is the first insert, which grows the fork's graph slices.
	warm := func() *relsched.Schedule {
		f, err := base.Fork()
		if err != nil {
			t.Fatal(err)
		}
		w, err := f.Apply(cg.InsertOpEdit("warm", cg.Cycles(0), sites[0][0], sites[0][1]))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var quiet cg.Edit
	found := false
	for _, site := range sites[1:] {
		w := warm()
		ed := cg.InsertOpEdit("x", cg.Cycles(0), site[0], site[1])
		if next, err := w.Apply(ed); err == nil && relsched.SharedColumns(w, next) == w.G.N()-1 {
			quiet, found = ed, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate insert leaves every offset in place")
	}
	best := uint64(0)
	for r := 0; r < 5; r++ {
		w := warm()
		sweeps, readjusts = nil, nil
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		next, err := w.Apply(quiet)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if got := relsched.SharedColumns(w, next); got != w.G.N()-1 {
			t.Fatalf("insert copied %d σ columns", w.G.N()-1-got)
		}
		if len(sweeps) != 1 || sweeps[0] != 1 || len(readjusts) != 1 || readjusts[0] != 0 {
			t.Fatalf("insert fired sweeps %v and readjustments %v, want the single warm-start pass [1] and [0]", sweeps, readjusts)
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; r == 0 || b < best {
			best = b
		}
	}
	table := uint64(nA * nV * 8)
	t.Logf("|A|=%d |V|=%d: insert allocates %d bytes (%.1f per |A|+|V|); the σ table is %d bytes", nA, nV, best, float64(best)/float64(nA+nV), table)
	if limit := uint64(256 * (nA + nV)); best > limit {
		t.Errorf("insert allocates %d bytes, want at most 256·(|A|+|V|) = %d", best, limit)
	}
	if best*8 > table {
		t.Errorf("insert allocates %d bytes, not far below the %d-byte σ table", best, table)
	}
}

// TestSigmaTablePacked pins the size of the packed σ table at the shape of
// the whatif-edit workload (N=2000, 200 minimum and 200 maximum
// constraints): at most 16 bytes per defined offset plus one 24-byte
// header per vertex and per chunk of headers, and below 1/16 of the dense
// 8·|V|·|A| table. The defined offsets are counted from g.LongestFrom, not
// from the table, and the bytes are read from the table itself, so the
// bound holds under -race as well.
func TestSigmaTablePacked(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2000 schedule")
	}
	cfg := randgraph.Default()
	cfg.N, cfg.MinConstraints, cfg.MaxConstraints = 2000, 200, 200
	rng := rand.New(rand.NewSource(1))
	var s *relsched.Schedule
	for s == nil {
		s, _ = relsched.Compute(randgraph.Generate(cfg, rng))
	}
	if err := relsched.CheckColumns(s); err != nil {
		t.Fatal(err)
	}
	g := s.G
	nA, nV := s.Info.NumAnchors(), g.N()
	defined := 0
	for _, a := range s.Info.List {
		dist, ok := g.LongestFrom(a)
		if !ok {
			t.Fatalf("positive cycle reachable from anchor %s", g.Name(a))
		}
		for _, d := range dist {
			if d != cg.Unreachable {
				defined++
			}
		}
	}
	chunks := (nV + 255) / 256
	got, dense := relsched.SigmaBytes(s), 8*nV*nA
	t.Logf("|A|=%d |V|=%d: %d defined offsets (%.1f per vertex) in %d bytes; dense %d bytes", nA, nV, defined, float64(defined)/float64(nV), got, dense)
	if limit := 16*defined + 24*(nV+chunks); got > limit {
		t.Errorf("σ table holds %d bytes, want at most 16·%d + 24·(%d+%d) = %d", got, defined, nV, chunks, limit)
	}
	if got*16 >= dense {
		t.Errorf("σ table holds %d bytes, want below 1/16 of the dense %d", got, dense)
	}
}
