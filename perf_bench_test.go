package repro

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/cgio/cgiotest"
	"repro/internal/designs"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// Per-stage microbenchmarks of the cold scheduling path, one
// sub-benchmark per paper design (all of a design's constraint graphs per
// iteration). Compare against the retained seed pipeline with:
//
//	go test -run '^$' -bench 'ScheduleCold' -count 10 . | benchstat -
//
// (see docs/PERFORMANCE.md for the full walkthrough). The *Baseline
// variants run relsched.ReferenceCompute* — the pre-optimization
// implementation kept as reference.go — so the CSR/arena win stays
// measurable in-tree instead of requiring a checkout of the old commit.

// designGraphs returns the constraint graphs of every paper design,
// keyed by design name in designs.All() order.
func designGraphs(tb testing.TB) []struct {
	name   string
	graphs []*cg.Graph
} {
	tb.Helper()
	var out []struct {
		name   string
		graphs []*cg.Graph
	}
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			tb.Fatalf("%s: %v", d.Name, err)
		}
		var gs []*cg.Graph
		for _, gname := range r.Order {
			gs = append(gs, r.Graphs[gname].CG)
		}
		out = append(out, struct {
			name   string
			graphs []*cg.Graph
		}{d.Name, gs})
	}
	return out
}

// BenchmarkAnalyze measures the anchor-analysis stage (anchor sets,
// relevant/irredundant sets, per-anchor longest paths and forward
// reachability) per design.
func BenchmarkAnalyze(b *testing.B) {
	for _, d := range designGraphs(b) {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range d.graphs {
					if _, err := relsched.Analyze(g); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkScheduleCold measures the iterative scheduling stage alone —
// analysis precomputed, cache disabled by construction — per design. This
// is the loop the flat pooled arena and CSR edge iteration target.
func BenchmarkScheduleCold(b *testing.B) {
	for _, d := range designGraphs(b) {
		infos := analyzeAll(b, d.graphs)
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, info := range infos {
					if _, err := relsched.ComputeFromAnalysis(info, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkScheduleColdBaseline is BenchmarkScheduleCold against the
// retained seed scheduler ([][]int tables, closure sweeps, per-schedule
// reachability floods).
func BenchmarkScheduleColdBaseline(b *testing.B) {
	for _, d := range designGraphs(b) {
		infos := analyzeAll(b, d.graphs)
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, info := range infos {
					if _, err := relsched.ReferenceComputeFromAnalysis(info); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPipeline times the full cold pipeline — well-posedness check,
// anchor analysis, iterative scheduling — end to end over every paper
// design, optimized vs the retained seed implementation. This is the
// benchmark-shaped counterpart of the cold_speedup ratio recorded in
// BENCH_engine.json.
func BenchmarkPipeline(b *testing.B) {
	ds := designGraphs(b)
	run := func(b *testing.B, compute func(*cg.Graph) (*relsched.Schedule, error)) {
		for i := 0; i < b.N; i++ {
			for _, d := range ds {
				for _, g := range d.graphs {
					if _, err := compute(g); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("optimized", func(b *testing.B) { run(b, relsched.Compute) })
	b.Run("reference", func(b *testing.B) { run(b, relsched.ReferenceCompute) })
}

func analyzeAll(tb testing.TB, graphs []*cg.Graph) []*relsched.AnchorInfo {
	tb.Helper()
	infos := make([]*relsched.AnchorInfo, len(graphs))
	for i, g := range graphs {
		info, err := relsched.Analyze(g)
		if err != nil {
			tb.Fatal(err)
		}
		infos[i] = info
	}
	return infos
}

// BenchmarkDeltaEdit measures one incremental edit — adding and removing
// a maximum constraint near the sink of a 100 000-vertex chain — through
// Schedule.Apply. The edit's cone is the chain tail, so the cone-bounded
// delta path re-schedules in microseconds where a cold recompute
// (BenchmarkFullRecompute, same graph) takes milliseconds; the ratio is
// the delta_speedup recorded in BENCH_engine.json.
func BenchmarkDeltaEdit(b *testing.B) {
	g := randgraph.Chain(100_000, 20_000)
	s, err := relsched.Compute(g)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	u, v := cg.VertexID(n-3), cg.VertexID(n-2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s, err = s.Apply(cg.AddMaxEdit(u, v, 2)); err != nil {
			b.Fatal(err)
		}
		if s, err = s.Apply(cg.RemoveEdgeEdit(s.G.M() - 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRecompute is the cold counterpart of BenchmarkDeltaEdit:
// a from-scratch Compute of the same 100 000-vertex chain, the cost every
// edit paid before the delta path existed.
func BenchmarkFullRecompute(b *testing.B) {
	g := randgraph.Chain(100_000, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relsched.Compute(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaInsert measures one bounded operation insert through
// Schedule.Apply on an N=2000 random graph with 200 timing constraints —
// the whatif-edit shape. Each insert splices a fresh operation between a
// bounded vertex u and a later vertex v with A(u) ⊆ A(v), so no anchor
// set changes; every 64 inserts the chain restarts from a fork of the
// cold schedule (untimed) so the graph stays near its starting size.
func BenchmarkDeltaInsert(b *testing.B) {
	cfg := randgraph.Default()
	cfg.N, cfg.MinConstraints, cfg.MaxConstraints = 2000, 200, 200
	rng := rand.New(rand.NewSource(1))
	var base *relsched.Schedule
	for base == nil {
		s, err := relsched.Compute(randgraph.Generate(cfg, rng))
		if err == nil {
			base = s
		}
	}
	g, info := base.G, base.Info
	var sites [][2]cg.VertexID
	for len(sites) < 512 {
		u := cg.VertexID(1 + rng.Intn(cfg.N-1))
		v := u + 1 + cg.VertexID(rng.Intn(cfg.N-int(u)))
		if g.Vertex(u).Delay.Bounded() && info.Full[u].SubsetOf(info.Full[v]) {
			sites = append(sites, [2]cg.VertexID{u, v})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cur *relsched.Schedule
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			f, err := base.Fork()
			if err != nil {
				b.Fatal(err)
			}
			cur = f
			b.StartTimer()
		}
		site := sites[i%len(sites)]
		if next, err := cur.Apply(cg.InsertOpEdit("", cg.Cycles(i%4), site[0], site[1])); err == nil {
			cur = next
		}
	}
}

// BenchmarkWriteOffsets measures rendering one irredundant offset table —
// what every GET of a finished serve job pays — on randgraph graphs of
// N=40 and N=200 (serve-churn's sizes), with cgio.WriteOffsets against
// the tabwriter renderer it replaced, kept as the cgiotest oracle:
//
//	go test -run '^$' -bench BenchmarkWriteOffsets -benchmem .
func BenchmarkWriteOffsets(b *testing.B) {
	for _, n := range []int{40, 200} {
		cfg := randgraph.Default()
		cfg.N = n
		rng := rand.New(rand.NewSource(int64(n)))
		var s *relsched.Schedule
		for s == nil {
			s, _ = relsched.Compute(randgraph.Generate(cfg, rng))
		}
		for _, r := range []struct {
			name   string
			render func(io.Writer, *relsched.Schedule, relsched.AnchorMode) error
		}{{"two-pass", cgio.WriteOffsets}, {"tabwriter", cgiotest.ReferenceOffsets}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, r.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := r.render(io.Discard, s, relsched.IrredundantAnchors); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParse measures cgio.ParseString on randgraph graphs of N=40,
// 200 and 1000 in the text format — every served job's intake — and
// reports, next to the allocations, the heap one parsed graph keeps
// (B-kept/graph: the live heap 32 parsed graphs hold after a GC, over
// 32):
//
//	go test -run '^$' -bench BenchmarkParse -benchmem .
func BenchmarkParse(b *testing.B) {
	for _, n := range []int{40, 200, 1000} {
		cfg := randgraph.Default()
		cfg.N = n
		var text strings.Builder
		if err := cgio.Write(&text, randgraph.Generate(cfg, rand.New(rand.NewSource(int64(n))))); err != nil {
			b.Fatal(err)
		}
		src := text.String()
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			const kept = 32
			graphs := make([]*cg.Graph, kept)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range graphs {
				g, err := cgio.ParseString(src)
				if err != nil {
					b.Fatal(err)
				}
				graphs[i] = g
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perGraph := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / kept
			runtime.KeepAlive(graphs)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cgio.ParseString(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perGraph, "B-kept/graph")
		})
	}
}
