// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index),
// plus scaling sweeps for the complexity claims of §V and an ablation of
// the iterative incremental scheduler against the per-anchor
// decomposition baseline.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cg"
	"repro/internal/ctrlgen"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/paperex"
	"repro/internal/randgraph"
	"repro/internal/relsched"
	"repro/internal/sim"
)

// BenchmarkTableI_Translation measures constraint-graph construction: the
// Table I translation of sequencing edges and min/max constraints into
// weighted edges.
func BenchmarkTableI_Translation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := cg.New()
		prev := g.Source()
		var ops []cg.VertexID
		for k := 0; k < 64; k++ {
			v := g.AddOp("", cg.Cycles(k%4))
			g.AddSeq(prev, v)
			ops = append(ops, v)
			prev = v
		}
		for k := 0; k+8 < len(ops); k += 8 {
			g.AddMin(ops[k], ops[k+8], 3)
			g.AddMax(ops[k], ops[k+8], 40)
		}
		if err := g.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Fig2Schedule measures the full pipeline on the Fig. 2
// example whose offsets Table II reports.
func BenchmarkTableII_Fig2Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := relsched.Compute(paperex.Fig2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_MakeWellposed measures ill-posedness repair on the
// Fig. 3(b) example.
func BenchmarkFig3_MakeWellposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := relsched.MakeWellPosed(paperex.Fig3b()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_MinimumAnchor measures anchor-set analysis (full,
// relevant, irredundant) on the redundant-anchor example.
func BenchmarkFig7_MinimumAnchor(b *testing.B) {
	g := paperex.Fig7()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relsched.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_Schedule measures iterative incremental scheduling on the
// Fig. 10 trace example.
func BenchmarkFig10_Schedule(b *testing.B) {
	g := paperex.Fig10()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relsched.Compute(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13_GCDPipeline measures the whole Hebe-style flow — parse,
// sequencing graph, binding, conflict resolution, hierarchical relative
// scheduling — on the Fig. 13 gcd description.
func BenchmarkFig13_GCDPipeline(b *testing.B) {
	d := designs.GCD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Synthesize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14_GCDSimulation measures the cycle-accurate simulation that
// reproduces the Fig. 14 trace.
func BenchmarkFig14_GCDSimulation(b *testing.B) {
	res, err := designs.GCD().Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	stim := sim.SignalTrace{
		"restart": {{Cycle: 0, Value: 1}, {Cycle: 5, Value: 0}},
		"xin":     {{Cycle: 0, Value: 24}},
		"yin":     {{Cycle: 0, Value: 36}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(res, stim, ctrlgen.Counter, relsched.IrredundantAnchors)
		if _, err := s.Run(100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the Table III statistics (full vs minimum
// anchor sets) for each of the eight designs. The paper reports all
// designs completing in under a second on a DECstation 5000/200; the
// per-op numbers here stand in for that execution-time table.
func BenchmarkTableIII(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := d.Synthesize()
				if err != nil {
					b.Fatal(err)
				}
				st := r.Stats()
				if st.TotalIrredundant > st.TotalFull {
					b.Fatal("ΣIR > ΣA")
				}
			}
		})
	}
}

// BenchmarkTableIV measures the Table IV offset aggregation (σ^max per
// anchor under both anchor modes) given an already-synthesized design.
func BenchmarkTableIV(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		r, err := d.Synthesize()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := r.Stats()
				if st.SumMaxIrredundant > st.SumMaxFull {
					b.Fatal("Σ max grew")
				}
			}
		})
	}
}

// BenchmarkControl_CounterVsShiftReg compares control-generation cost
// evaluation for the two §VI implementation styles (the Fig. 12
// trade-off) on the gcd top-level schedule.
func BenchmarkControl_CounterVsShiftReg(b *testing.B) {
	res, err := designs.GCD().Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	sched := res.TopResult().Schedule
	for _, style := range []ctrlgen.Style{ctrlgen.Counter, ctrlgen.ShiftRegister} {
		style := style
		b.Run(style.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := ctrlgen.Synthesize(sched, relsched.IrredundantAnchors, style)
				if c.Cost().RegisterBits <= 0 {
					b.Fatal("degenerate cost")
				}
			}
		})
	}
}

// BenchmarkScaling_Incremental sweeps the iterative incremental scheduler
// over random constraint graphs of growing size and backward-edge count —
// the O((|E_b|+1)·|A|·|E|) claim of §V.
func BenchmarkScaling_Incremental(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		for _, back := range []int{2, 8, 32} {
			cfg := randgraph.Default()
			cfg.N = n
			cfg.MaxConstraints = back
			name := fmt.Sprintf("V=%d/Eb=%d", n, back)
			b.Run(name, func(b *testing.B) {
				graphs := pregenerate(b, cfg, 8)
				infos := make([]*relsched.AnchorInfo, len(graphs))
				for i, g := range graphs {
					info, err := relsched.Analyze(g)
					if err != nil {
						b.Fatal(err)
					}
					infos[i] = info
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := relsched.ComputeFromAnalysis(infos[i%len(infos)], nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScaling_Decomposition is the ablation baseline: the naive
// per-anchor Bellman–Ford decomposition (§IV step 4) on the same graphs.
// Its complexity is O(|A|·|V|·|E|), which loses to the incremental engine
// as graphs grow.
func BenchmarkScaling_Decomposition(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		cfg := randgraph.Default()
		cfg.N = n
		name := fmt.Sprintf("V=%d", n)
		b.Run(name, func(b *testing.B) {
			graphs := pregenerate(b, cfg, 8)
			infos := make([]*relsched.AnchorInfo, len(graphs))
			for i, g := range graphs {
				info, err := relsched.Analyze(g)
				if err != nil {
					b.Fatal(err)
				}
				infos[i] = info
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relsched.DecompositionSchedule(infos[i%len(infos)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaling_AnchorAnalysis sweeps the anchor-set machinery
// (findAnchorSet, relevantAnchor, minimumAnchor) alone.
func BenchmarkScaling_AnchorAnalysis(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		cfg := randgraph.Default()
		cfg.N = n
		name := fmt.Sprintf("V=%d", n)
		b.Run(name, func(b *testing.B) {
			graphs := pregenerate(b, cfg, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relsched.Analyze(graphs[i%len(graphs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd_AllDesigns runs the entire evaluation suite — all
// eight designs synthesized back to back — matching the §VII claim that
// every example completes in well under a second.
func BenchmarkEndToEnd_AllDesigns(b *testing.B) {
	all := designs.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range all {
			if _, err := d.Synthesize(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineBatch compares the three ways of scheduling the eight
// paper designs' constraint-graph hierarchies R times over (the what-if
// re-run workload): one-at-a-time relsched.Compute, the engine's worker
// pool with memoization disabled, and the pooled engine with memoized
// anchor analysis. See BenchmarkEngineArtifact for the BENCH_engine.json
// artifact derived from the same workload.
func BenchmarkEngineBatch(b *testing.B) {
	jobs := paperDesignJobs(b)
	const rounds = 8
	workload := repeatJobs(jobs, rounds)

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, j := range workload {
				if _, err := relsched.Compute(j.Graph); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		e := engine.New(engine.Options{DisableCache: true})
		for i := 0; i < b.N; i++ {
			for _, r := range e.RunAll(context.Background(), workload) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.Run("pooled+memoized", func(b *testing.B) {
		e := engine.New(engine.Options{CacheCapacity: 2 * len(jobs)})
		for i := 0; i < b.N; i++ {
			for _, r := range e.RunAll(context.Background(), workload) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// paperDesignJobs synthesizes the eight paper designs once and returns one
// engine job per constraint graph in their hierarchies, labelled
// design/graph-index.
func paperDesignJobs(tb testing.TB) []engine.Job {
	tb.Helper()
	var jobs []engine.Job
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			tb.Fatal(err)
		}
		for i, g := range r.Order {
			jobs = append(jobs, engine.Job{
				ID:    fmt.Sprintf("%s/%d", d.Name, i),
				Graph: r.Graphs[g].CG,
			})
		}
	}
	return jobs
}

// repeatJobs concatenates rounds copies of the job list, modelling
// repeated what-if re-scheduling of the same designs.
func repeatJobs(jobs []engine.Job, rounds int) []engine.Job {
	out := make([]engine.Job, 0, len(jobs)*rounds)
	for r := 0; r < rounds; r++ {
		out = append(out, jobs...)
	}
	return out
}

// pregenerate builds a pool of schedulable random graphs for a config.
func pregenerate(b *testing.B, cfg randgraph.Config, count int) []*cg.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	var out []*cg.Graph
	for tries := 0; len(out) < count && tries < count*20; tries++ {
		g := randgraph.Generate(cfg, rng)
		if _, err := relsched.Compute(g); err == nil {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		b.Fatal("could not generate schedulable graphs")
	}
	return out
}
