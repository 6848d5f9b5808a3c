package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/leakcheck"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// renderOffsets serializes a schedule's offset table; byte equality of the
// rendering is the "identical schedule" criterion used throughout.
func renderOffsets(t *testing.T, s *relsched.Schedule, mode relsched.AnchorMode) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cgio.WriteOffsets(&buf, s, mode); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildIllPosed returns a graph with one ill-posed maximum constraint: the
// backward edge's tail has anchor a in its anchor set, the head does not
// (Theorem 2 violation), repairable by serializing y after a.
func buildIllPosed() *cg.Graph {
	g := cg.New()
	a := g.AddOp("a", cg.UnboundedDelay())
	x := g.AddOp("x", cg.Cycles(2))
	y := g.AddOp("y", cg.Cycles(1))
	sink := g.AddOp("sink", cg.Cycles(0))
	g.AddSeq(g.Source(), a)
	g.AddSeq(a, x)
	g.AddSeq(g.Source(), y)
	g.AddSeq(x, sink)
	g.AddSeq(y, sink)
	g.AddMax(y, x, 5)
	return g
}

func TestScheduleMatchesCompute(t *testing.T) {
	e := New(Options{Workers: 2})
	g := buildFig2ish()
	want, err := relsched.Compute(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	res := e.Schedule(context.Background(), Job{ID: "fig2", Graph: g})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit {
		t.Fatal("first schedule of a graph reported a cache hit")
	}
	for _, mode := range []relsched.AnchorMode{relsched.FullAnchors, relsched.RelevantAnchors, relsched.IrredundantAnchors} {
		if !bytes.Equal(renderOffsets(t, res.Schedule, mode), renderOffsets(t, want, mode)) {
			t.Errorf("mode %v: engine offsets differ from relsched.Compute", mode)
		}
	}
	if res.Info == nil || res.Info != res.Schedule.Info || len(res.Info.Irredundant) != g.N() {
		t.Error("result is missing the scheduled analysis (irredundant sets)")
	}
}

func TestCacheHitSharesAnalysis(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx := context.Background()
	first := e.Schedule(ctx, Job{ID: "1", Graph: buildFig2ish()})
	second := e.Schedule(ctx, Job{ID: "2", Graph: buildFig2ish()})
	if first.Err != nil || second.Err != nil {
		t.Fatal(first.Err, second.Err)
	}
	if first.CacheHit || !second.CacheHit {
		t.Fatalf("cache hits: first=%v second=%v, want false/true", first.CacheHit, second.CacheHit)
	}
	if first.Schedule != second.Schedule || first.Info != second.Info {
		t.Error("cache hit did not share the memoized schedule and analysis")
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheKeyedByWellPose(t *testing.T) {
	// The same ill-posed graph must resolve to an error without WellPose
	// and to a repaired schedule with it — two distinct cache entries.
	e := New(Options{Workers: 1})
	ctx := context.Background()
	plain := e.Schedule(ctx, Job{Graph: buildIllPosed()})
	var ill *relsched.IllPosedError
	if !errors.As(plain.Err, &ill) {
		t.Fatalf("want IllPosedError, got %v", plain.Err)
	}
	repaired := e.Schedule(ctx, Job{Graph: buildIllPosed(), WellPose: true})
	if repaired.Err != nil {
		t.Fatal(repaired.Err)
	}
	if repaired.CacheHit {
		t.Fatal("WellPose job hit the cache entry of the non-WellPose job")
	}
	if repaired.SerializationEdges == 0 {
		t.Error("repair added no serialization edges")
	}
	if repaired.Graph == nil || repaired.Graph.M() <= buildIllPosed().M() {
		t.Error("result graph is not the serialized clone")
	}
	// Deterministic error verdicts are memoized too.
	again := e.Schedule(ctx, Job{Graph: buildIllPosed()})
	if !again.CacheHit || !errors.As(again.Err, &ill) {
		t.Errorf("cached error verdict not served: hit=%v err=%v", again.CacheHit, again.Err)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Options{Workers: 1, CacheCapacity: 1})
	ctx := context.Background()
	g1, g2 := buildFig2ish(), buildIllPosed()
	e.Schedule(ctx, Job{Graph: g1})
	e.Schedule(ctx, Job{Graph: g2, WellPose: true}) // evicts g1's entry
	res := e.Schedule(ctx, Job{Graph: g1})
	if res.CacheHit {
		t.Fatal("entry survived past the cache capacity")
	}
	if st := e.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestDisableCache(t *testing.T) {
	e := New(Options{Workers: 1, DisableCache: true})
	ctx := context.Background()
	e.Schedule(ctx, Job{Graph: buildFig2ish()})
	res := e.Schedule(ctx, Job{Graph: buildFig2ish()})
	if res.CacheHit {
		t.Fatal("cache hit with caching disabled")
	}
	if st := e.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache recorded lookups: %+v", st)
	}
}

// TestStaleFingerprintRegression pins the memo contract: a fingerprint
// memoized on a graph value must not survive a mutation of that value.
// Otherwise the memo would serve the pre-mutation fingerprint, the cache
// would return the pre-mutation schedule, and the added constraint would
// be silently ignored.
func TestStaleFingerprintRegression(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx := context.Background()

	// Populate the cache under the pre-mutation fingerprint.
	baseline := e.Schedule(ctx, Job{ID: "base", Graph: buildFig2ish()})
	if baseline.Err != nil {
		t.Fatal(baseline.Err)
	}

	// Pre-warm the fingerprint memo for g while it is still mutable,
	// then tighten a constraint before submitting.
	g := buildFig2ish()
	if fingerprint(g) != FingerprintOf(buildFig2ish()) {
		t.Fatal("sanity: pre-mutation fingerprints differ")
	}
	// Well-posed addition: A(v4) ⊆ A(v3), and u=9 exceeds the longest
	// forward path v3→v4 so the graph stays consistent.
	g.AddMax(g.VertexByName("v3"), g.VertexByName("v4"), 9)

	res := e.Schedule(ctx, Job{ID: "mutated", Graph: g})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit {
		t.Fatal("stale cache entry served for the mutated graph")
	}
	if res.Graph.NumBackward() == baseline.Graph.NumBackward() {
		t.Fatal("result graph does not reflect the mutation")
	}
}

func TestPoolSizing(t *testing.T) {
	// Workers <= 0 resolves to min(GOMAXPROCS, NumCPU) — the pool never
	// outnumbers the CPUs it can actually run on; 1 is a valid serial pool.
	want := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < want {
		want = c
	}
	if w := New(Options{Workers: 0}).Workers(); w != want {
		t.Errorf("Workers(0) resolved to %d, want min(GOMAXPROCS, NumCPU)=%d", w, want)
	}
	if w := New(Options{Workers: -3}).Workers(); w != want {
		t.Errorf("Workers(-3) resolved to %d, want min(GOMAXPROCS, NumCPU)=%d", w, want)
	}
	for _, workers := range []int{0, 1} {
		e := New(Options{Workers: workers, DisableCache: true})
		jobs := []Job{
			{ID: "a", Graph: buildFig2ish()},
			{ID: "b", Graph: buildIllPosed(), WellPose: true},
			{ID: "c", Graph: buildFig2ish()},
		}
		results := e.RunAll(context.Background(), jobs)
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(results), len(jobs))
		}
		for i, r := range results {
			if r.JobID != jobs[i].ID {
				t.Errorf("workers=%d: result %d answers job %q", workers, i, r.JobID)
			}
			if r.Err != nil {
				t.Errorf("workers=%d: job %q failed: %v", workers, r.JobID, r.Err)
			}
		}
	}
}

func TestRunStreams(t *testing.T) {
	e := New(Options{Workers: 4, DisableCache: true})
	const n = 32
	jobs := make(chan Job)
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			jobs <- Job{ID: fmt.Sprintf("j%d", i), Graph: buildFig2ish()}
		}
	}()
	seen := make(map[string]bool)
	for res := range e.Run(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatalf("job %s: %v", res.JobID, res.Err)
		}
		if seen[res.JobID] {
			t.Fatalf("job %s answered twice", res.JobID)
		}
		seen[res.JobID] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d results, want %d", len(seen), n)
	}
}

func TestMidBatchCancellation(t *testing.T) {
	// Cancellation must reap every pool worker, not strand them on the
	// jobs channel.
	leakcheck.Check(t)
	e := New(Options{Workers: 2, DisableCache: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make(chan Job)
	const total = 500
	go func() {
		defer close(jobs)
		for i := 0; i < total; i++ {
			select {
			case jobs <- Job{ID: fmt.Sprintf("j%d", i), Graph: buildFig2ish()}:
			case <-ctx.Done():
				return
			}
		}
	}()
	results := e.Run(ctx, jobs)
	delivered := 0
	for res := range results {
		if res.Err == nil {
			delivered++
		}
		if delivered == 3 {
			cancel()
		}
	}
	// The channel closed (or the loop above would still be blocked); the
	// batch must have stopped early.
	if delivered >= total {
		t.Fatalf("all %d jobs completed despite mid-batch cancellation", total)
	}
	// A cancelled context fails subsequent jobs immediately.
	res := e.Schedule(ctx, Job{Graph: buildFig2ish()})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("post-cancel job returned %v, want context.Canceled", res.Err)
	}
	if res.Schedule != nil {
		t.Fatal("cancelled job carried a schedule")
	}
}

func TestRunAllCancelled(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := e.RunAll(ctx, []Job{{Graph: buildFig2ish()}, {Graph: buildFig2ish()}})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestJobTimeout(t *testing.T) {
	// A deadline that has already passed by the first checkpoint fails
	// the job with DeadlineExceeded and leaves the cache unpolluted.
	e := New(Options{Workers: 1})
	res := e.Schedule(context.Background(), Job{Graph: buildFig2ish(), Timeout: time.Nanosecond})
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
	}
	if st := e.Stats(); st.Entries != 0 {
		t.Errorf("timed-out job was cached: %+v", st)
	}
	// The same graph still schedules fine without the deadline.
	if res := e.Schedule(context.Background(), Job{Graph: buildFig2ish()}); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestBatchMatchesSequential is the batch-equivalence property: on 100
// random constraint graphs, concurrent memoized batch scheduling produces
// byte-identical offset tables to one-at-a-time relsched.Compute.
func TestBatchMatchesSequential(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(7))
	cfg := randgraph.Default()
	cfg.N = 24
	var graphs []*cg.Graph
	var want [][]byte
	for len(graphs) < 100 {
		g := randgraph.Generate(cfg, rng)
		s, err := relsched.Compute(g)
		if err != nil {
			continue // unschedulable sample; the property is about schedulable graphs
		}
		graphs = append(graphs, g)
		want = append(want, renderOffsets(t, s, relsched.IrredundantAnchors))
	}

	e := New(Options{Workers: 8})
	jobs := make([]Job, len(graphs))
	for i, g := range graphs {
		jobs[i] = Job{ID: fmt.Sprintf("g%d", i), Graph: g}
	}
	// Two passes: the second must be all cache hits with identical bytes.
	for pass := 0; pass < 2; pass++ {
		results := e.RunAll(context.Background(), jobs)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("pass %d, graph %d: %v", pass, i, res.Err)
			}
			if pass == 1 && !res.CacheHit {
				t.Errorf("pass 1, graph %d: expected cache hit", i)
			}
			got := renderOffsets(t, res.Schedule, relsched.IrredundantAnchors)
			if !bytes.Equal(got, want[i]) {
				t.Errorf("pass %d, graph %d: batch offsets differ from sequential", pass, i)
			}
		}
	}
}

// TestSetCacheCapacity pins the hot-reload contract used by
// internal/serve's POST /v1/admin/config: shrinking evicts LRU-first
// down to the new bound, growing re-admits, <= 0 restores the default,
// and a disabled cache stays disabled.
func TestSetCacheCapacity(t *testing.T) {
	e := New(Options{Workers: 1, CacheCapacity: 4})
	ctx := context.Background()
	if got := e.CacheCapacity(); got != 4 {
		t.Fatalf("CacheCapacity() = %d, want 4", got)
	}

	// Fill all four slots with distinct graphs.
	for i := 0; i < 4; i++ {
		res := e.Schedule(ctx, Job{Graph: randgraph.Chain(5+i, 2)})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st := e.Stats(); st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}

	// Shrink to 2: the two oldest entries are evicted immediately.
	if got := e.SetCacheCapacity(2); got != 2 {
		t.Fatalf("SetCacheCapacity(2) = %d, want 2", got)
	}
	st := e.Stats()
	if st.Entries != 2 {
		t.Errorf("entries after shrink = %d, want 2", st.Entries)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions after shrink = %d, want 2", st.Evictions)
	}
	// The newest entries survived (LRU evicts oldest-first)...
	if res := e.Schedule(ctx, Job{Graph: randgraph.Chain(8, 2)}); !res.CacheHit {
		t.Error("most-recent entry evicted by the shrink")
	}
	// ...and the oldest did not.
	if res := e.Schedule(ctx, Job{Graph: randgraph.Chain(5, 2)}); res.CacheHit {
		t.Error("oldest entry survived a shrink below it")
	}

	// Growing raises the bound without dropping anything.
	if got := e.SetCacheCapacity(8); got != 8 || e.CacheCapacity() != 8 {
		t.Errorf("grow: got %d / %d, want 8", got, e.CacheCapacity())
	}
	// <= 0 restores the engine default.
	if got := e.SetCacheCapacity(0); got != DefaultCacheCapacity {
		t.Errorf("SetCacheCapacity(0) = %d, want the default %d", got, DefaultCacheCapacity)
	}

	// A cache disabled at construction cannot be re-enabled.
	off := New(Options{Workers: 1, DisableCache: true})
	if got := off.CacheCapacity(); got != 0 {
		t.Errorf("disabled CacheCapacity() = %d, want 0", got)
	}
	if got := off.SetCacheCapacity(16); got != 0 {
		t.Errorf("disabled SetCacheCapacity(16) = %d, want 0", got)
	}
}
