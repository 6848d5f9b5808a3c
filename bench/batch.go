package relbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/obs"
)

// batchLoad is batch-cold: Issuers goroutines run cgio.ParseString then
// engine.Schedule over laps of distinct graphs, each lap on a fresh
// engine with the options `relsched batch` uses, so the cache never
// answers across laps. There is no render step, as in `relsched batch`
// without -print. A window is the laps that fit in its time.
type batchLoad struct {
	r    *run
	jobs []job
	seq  int64 // ops issued before the current lap

	// Sums over the measured laps.
	snap     engineCounters
	mem      memCounters
	parseUS  []float64
	schedUS  []float64
	measured int
}

var batchOptions = engine.Options{StageMetrics: true}

func (b *batchLoad) inputs(r *run) error {
	b.r = r
	p := r.p
	t := time.Now()
	var err error
	if b.jobs, err = designJobs(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var random []job
	for i, n := range p.BatchSizes {
		js, err := randomJobs(rng, sized(n), p.BatchCounts[i], p.BatchIllPosed)
		if err != nil {
			return err
		}
		random = append(random, js...)
	}
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	// The design graphs lead every lap, so the first job, which set-up
	// times, is the same graph for every seed.
	b.jobs = append(b.jobs, random...)
	r.corpusDigest = corpusDigest(b.jobs)
	i := 0
	r.opsDigest = digestDraws(len(b.jobs), func() []int64 {
		j := b.jobs[i]
		i++
		return []int64{int64(len(j.text)), int64(boolInt(j.wellPose))}
	})
	r.logf("%d graphs a lap, expectations from relsched.ReferenceCompute in %.2fs", len(b.jobs), time.Since(t).Seconds())
	return nil
}

func (b *batchLoad) setup(ctx context.Context, r *run) ([]time.Duration, error) {
	setups := make([]time.Duration, r.p.SetupReps)
	first := b.jobs[0]
	for i := range setups {
		start := time.Now()
		e := engine.New(batchOptions)
		g, err := cgio.ParseString(first.text)
		if err != nil {
			return nil, err
		}
		res := e.Schedule(ctx, engine.Job{Graph: g, WellPose: first.wellPose})
		setups[i] = time.Since(start)
		if res.Err != nil {
			return nil, fmt.Errorf("first job: %w", res.Err)
		}
	}
	return setups, nil
}

func (b *batchLoad) measure(ctx context.Context, r *run) error {
	for end := time.Now().Add(r.warmup()); time.Now().Before(end); {
		if _, err := b.lap(ctx, -1); err != nil {
			return err
		}
	}
	for w := 0; w < r.p.Windows; w++ {
		if err := resetPeakRSS("self"); err != nil {
			return err
		}
		var win windowRec
		for win.wall < r.window() {
			lap, err := b.lap(ctx, w)
			if err != nil {
				return err
			}
			win.wall += lap.wall
			win.cpu += lap.cpu
		}
		var err error
		if win.peakMB, err = peakRSSMB("self"); err != nil {
			return err
		}
		r.wins = append(r.wins, win)
	}
	b.record()
	return nil
}

// lap schedules every job once on a fresh engine, then checks every
// result against its expectation outside the lap's clock.
func (b *batchLoad) lap(ctx context.Context, w int) (windowRec, error) {
	r := b.r
	traced := r.traced(w)
	// A lap stands for one `relsched batch` process, which starts with no
	// garbage. Collecting the last lap's results first, off the clock,
	// also makes each lap's heap peak, and so peak_rss_mb, independent of
	// where the last lap's collections happened to fall.
	runtime.GC()
	e := engine.New(batchOptions)
	results := make([]engine.Result, len(b.jobs))
	ops := make([]opRec, len(b.jobs))
	// Per job: issue, parsed, done; kept for the spans of traced laps.
	times := make([][3]time.Time, len(b.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, t0 := cpuTime(), time.Now()
	for g := 0; g < r.p.Issuers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for i := int(next.Add(1) - 1); i < len(b.jobs) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				j := &b.jobs[i]
				start := time.Now()
				graph, err := cgio.ParseString(j.text)
				parsed := time.Now()
				if err != nil {
					results[i].Err = err
				} else {
					results[i] = e.Schedule(ctx, engine.Job{Graph: graph, WellPose: j.wellPose})
				}
				done := time.Now()
				ops[i] = opRec{window: w, lat: done.Sub(start), lag: start.Sub(due)}
				times[i] = [3]time.Time{start, parsed, done}
				due = done
			}
		}()
	}
	wg.Wait()
	lap := windowRec{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&mem1)
	if err := ctx.Err(); err != nil {
		return lap, err
	}

	vt := time.Now()
	mismatches := 0
	for i, res := range results {
		if res.Err != nil {
			ops[i].failed = true
		} else if scheduleDigest(res.Schedule) != b.jobs[i].want {
			ops[i].failed = true
			mismatches++
		}
	}
	r.addVerify(time.Since(vt), mismatches)
	if w >= 0 {
		b.mem.add(&mem0, &mem1)
		b.snap.add(e.Metrics().Snapshot())
		b.measured += len(ops)
		r.addOps(ops)
		for i, t := range times {
			if !traced || ops[i].failed {
				continue
			}
			r.rec.op(b.seq+int64(i), "op", t[0], t[2], child{"parse", t[0], t[1]}, child{"schedule", t[1], t[2]})
			b.parseUS = append(b.parseUS, us(t[1].Sub(t[0])))
			b.schedUS = append(b.schedUS, us(t[2].Sub(t[1])))
			if r.sampled(w, b.seq+int64(i)) {
				j := b.jobs[i]
				r.addShadow(shadowSample{op: b.seq + int64(i), text: func() (string, error) { return j.text, nil }, wellPose: j.wellPose})
			}
		}
	}
	b.seq += int64(len(b.jobs))
	return lap, nil
}

func (b *batchLoad) record() {
	r := b.r
	r.layerDist("cgio.parse_us.p50", "us", b.parseUS, 50)
	r.layerDist("cgio.parse_us.p99", "us", b.parseUS, 99)
	r.layerDist("engine.schedule_us.p50", "us", b.schedUS, 50)
	r.layerDist("engine.schedule_us.p99", "us", b.schedUS, 99)
	var wall time.Duration
	for _, w := range r.wins {
		wall += w.wall
	}
	b.snap.record(r, b.measured, wall)
	b.mem.record(r, b.measured)
}

func (b *batchLoad) close() error { return nil }

// engineCounters sums engine registry snapshots over measured work.
type engineCounters struct {
	counters map[string]float64
	sumNS    map[string]float64
	count    map[string]float64
}

func (c *engineCounters) init() {
	if c.counters == nil {
		c.counters, c.sumNS, c.count = map[string]float64{}, map[string]float64{}, map[string]float64{}
	}
}

func (c *engineCounters) add(s obs.Snapshot) {
	c.init()
	for k, v := range s.Counters {
		c.counters[k] += float64(v)
	}
	for k, h := range s.Histograms {
		c.sumNS[k] += float64(h.SumNS)
		c.count[k] += float64(h.Count)
	}
}

// merge adds another sum into c.
func (c *engineCounters) merge(o engineCounters) {
	c.init()
	for k, v := range o.counters {
		c.counters[k] += v
	}
	for k, v := range o.sumNS {
		c.sumNS[k] += v
	}
	for k, v := range o.count {
		c.count[k] += v
	}
}

// record derives the engine-layer metrics; busy is the time the engine
// spent on the ops, as its own clock (engine.job.duration and the
// delta stage) measured it.
func (c *engineCounters) record(r *run, ops int, wall time.Duration) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lookups := c.counters["engine.cache.lookups"]
	n := float64(ops)
	busy := c.sumNS["engine.job.duration"] + c.sumNS["engine.stage.delta"]
	r.layer("engine.busy_share", "share", ratio(busy, float64(wall)*float64(r.p.Issuers)), ops)
	r.layer("engine.cache.hit_ratio", "share", ratio(c.counters["engine.cache.hits"], lookups), int(lookups))
	r.layer("engine.cache.evictions_per_op", "count", ratio(c.counters["engine.cache.evictions"], n), ops)
	r.layer("engine.cache.suppressed_share", "share", ratio(c.counters["engine.cache.duplicate_suppressed"], lookups), ops)
	r.layer("engine.computes_per_op", "count", ratio(c.counters["engine.computes"], n), ops)
	for _, st := range []string{"fingerprint", "cache", "wellpose", "analyze", "schedule"} {
		if k := "engine.stage." + st; c.count[k] > 0 {
			r.layer(k+"_us.mean", "us", c.sumNS[k]/c.count[k]/1e3, int(c.count[k]))
		}
	}
}

// memCounters sums the Go runtime's allocation and GC counts over
// measured work in this process.
type memCounters struct {
	allocBytes, gcs float64
}

func (m *memCounters) add(before, after *runtime.MemStats) {
	m.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	m.gcs += float64(after.NumGC - before.NumGC)
}

func (m *memCounters) record(r *run, ops int) {
	if ops == 0 {
		return
	}
	r.layer("runtime.alloc_kb_per_op", "KB", m.allocBytes/1024/float64(ops), ops)
	r.layer("runtime.gc_per_kop", "count", m.gcs/(float64(ops)/1000), ops)
}
