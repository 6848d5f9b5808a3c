// Package relbench is the benchmark of the relative scheduler: four
// workloads that drive the program the way its users do — the
// `relsched serve` daemon over loopback HTTP, and the engine, cgio and
// relsched packages in a process of their own — and measure it end to
// end and layer by layer. Every output is checked against expectations
// computed at set-up by relsched.ReferenceCompute. README.md explains
// the workloads, the metrics and how to read a traced run.
package relbench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/stats"
)

// Workload names, in the order a run of all of them uses.
const (
	ServeSteady = "serve-steady"
	ServeChurn  = "serve-churn"
	BatchCold   = "batch-cold"
	WhatifEdit  = "whatif-edit"
)

// Workloads lists every workload.
var Workloads = []string{ServeSteady, ServeChurn, BatchCold, WhatifEdit}

// Params is every setting a run uses; the results header records it.
type Params struct {
	Seed int64 `json:"seed"`
	// Windows timed windows of WindowS seconds follow WarmupS seconds of
	// untimed load. Each end-to-end metric is the median over windows.
	Windows   int     `json:"windows"`
	WindowS   float64 `json:"window_s"`
	WarmupS   float64 `json:"warmup_s"`
	SetupReps int     `json:"setup_reps"`
	// Trace alternates untraced and traced windows and replays a
	// sample of 1 in ShadowEvery ops of the traced windows afterwards.
	Trace       bool `json:"trace"`
	ShadowEvery int  `json:"shadow_every"`
	// Issuers is how many goroutines issue work (the host's CPU count).
	Issuers int `json:"issuers"`

	// ServeFill jobs fill the daemon before the serve warm-up: its
	// default result store holds 4096 finished jobs.
	ServeFill     int     `json:"serve_fill"`
	SteadyRandom  int     `json:"steady_random_graphs"`
	SteadyZipfS   float64 `json:"steady_zipf_s"`
	SteadyTenants int     `json:"steady_tenants"`
	ServeLimitMS  float64 `json:"serve_limit_ms"`

	ChurnGraphs     int     `json:"churn_graphs"`
	ChurnLargeShare float64 `json:"churn_large_share"`

	// Batch laps hold the design graphs plus BatchCounts[i] random
	// graphs of BatchSizes[i] operations each.
	BatchSizes    []int   `json:"batch_sizes"`
	BatchCounts   []int   `json:"batch_counts"`
	BatchIllPosed float64 `json:"batch_ill_posed_share"`
	BatchLimitMS  float64 `json:"batch_limit_ms"`

	WhatifN           int     `json:"whatif_n"`
	WhatifConstraints int     `json:"whatif_constraints"`
	WhatifEpisode     int     `json:"whatif_episode"`
	WhatifLimitMS     float64 `json:"whatif_limit_ms"`
}

// DefaultParams are the committed settings; seconds is the measured
// time, split into ten windows.
func DefaultParams(seed int64, seconds float64) Params {
	return Params{
		Seed:        seed,
		Windows:     10,
		WindowS:     seconds / 10,
		WarmupS:     3,
		SetupReps:   31,
		ShadowEvery: 16,
		Issuers:     2,

		ServeFill:     4096,
		SteadyRandom:  512,
		SteadyZipfS:   1.1,
		SteadyTenants: 4,
		ServeLimitMS:  10,

		ChurnGraphs:     4096,
		ChurnLargeShare: 0.3,

		BatchSizes:    []int{40, 200, 1000},
		BatchCounts:   []int{600, 250, 60},
		BatchIllPosed: 0.1,
		BatchLimitMS:  10,

		WhatifN:           2000,
		WhatifConstraints: 200,
		WhatifEpisode:     256,
		WhatifLimitMS:     1,
	}
}

// SteadyRate is serve-steady's open-loop rate in jobs/s: half the
// highest rate on a calibration ladder whose p99 stayed within the
// serve latency limit (README.md, "Calibrating R"). It is frozen; to
// recalibrate, edit it.
const SteadyRate = 300

// ToyParams shrink every workload to run in well under a second; the
// smoke test uses them.
func ToyParams(seed int64) Params {
	p := DefaultParams(seed, 2)
	p.Windows = 2
	p.ShadowEvery = 4
	p.WarmupS = 0.1
	p.SetupReps = 2
	p.ServeFill = 64
	p.SteadyRandom = 16
	p.ChurnGraphs = 64
	p.BatchCounts = []int{12, 4, 0}
	p.WhatifN = 120
	p.WhatifConstraints = 12
	p.WhatifEpisode = 32
	return p
}

// Env is where a run finds the daemon binary and puts its spans.
type Env struct {
	// Relsched is a built `relsched` binary; the serve workloads need it.
	Relsched string
	// TraceDir receives the span files of a traced run; empty keeps
	// spans in memory only.
	TraceDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// workload is one traffic mix.
type workload interface {
	// inputs generates the inputs from the seed, computes their expected
	// outputs, and records the corpus and op-sequence digests.
	inputs(r *run) error
	// setup brings up the system under test, returning one set-up time
	// per repetition.
	setup(ctx context.Context, r *run) ([]time.Duration, error)
	// measure runs the warm-up and the timed windows.
	measure(ctx context.Context, r *run) error
	// close stops whatever setup started.
	close() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case ServeSteady, ServeChurn:
		return &serveLoad{open: name == ServeSteady}, nil
	case BatchCold:
		return &batchLoad{}, nil
	case WhatifEdit:
		return &whatifLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Workloads, ", "))
}

func newRun(name string, p Params, env Env) *run {
	return &run{name: name, p: p, env: env, layers: map[string]Metric{}, rec: newRecorder()}
}

// Run executes one workload and returns its measurements.
func Run(ctx context.Context, name string, p Params, env Env) (*Result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	r := newRun(name, p, env)
	r.logf("set-up")
	if err := w.inputs(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	setups, err := w.setup(ctx, r)
	if err == nil {
		r.logf("set-up done: corpus %s, ops %s; measuring %d windows of %.2fs after %.1fs warm-up",
			r.corpusDigest, r.opsDigest, p.Windows, p.WindowS, p.WarmupS)
		err = w.measure(ctx, r)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if p.Trace {
		if err := r.replayShadow(ctx); err != nil {
			return nil, fmt.Errorf("%s: shadow replay: %w", name, err)
		}
	}
	return r.result(setups)
}

// Digests returns the corpus and op-sequence digests a workload's
// inputs have under p, without running it.
func Digests(name string, p Params) (corpus, ops string, err error) {
	w, err := newWorkload(name)
	if err != nil {
		return "", "", err
	}
	r := newRun(name, p, Env{})
	if err := w.inputs(r); err != nil {
		return "", "", err
	}
	return r.corpusDigest, r.opsDigest, nil
}

// opRec is one measured operation.
type opRec struct {
	window int
	// lat runs from the op's due time (open loop) or issue (closed
	// loop) to its result; lag from due time to issue.
	lat, lag time.Duration
	failed   bool
	// refused marks an edit the engine refused: a correct answer once
	// the oracle agrees, but never one within the limit.
	refused bool
}

// windowRec is one timed window.
type windowRec struct {
	wall time.Duration
	cpu  time.Duration // CPU time of the process under test
	// peakMB is the peak resident set of the process under test within
	// the window.
	peakMB float64
}

// run is the state one workload run accumulates.
type run struct {
	name string
	p    Params
	env  Env
	rec  *recorder

	mu         sync.Mutex
	ops        []opRec
	wins       []windowRec
	shadow     []shadowSample
	layers     map[string]Metric
	verify     time.Duration
	mismatches int
	drops      int

	corpusDigest, opsDigest string
}

func (r *run) logf(format string, args ...any) {
	if r.env.Log != nil {
		fmt.Fprintf(r.env.Log, "relbench %s: %s\n", r.name, fmt.Sprintf(format, args...))
	}
}

func (r *run) window() time.Duration { return time.Duration(r.p.WindowS * float64(time.Second)) }
func (r *run) warmup() time.Duration { return time.Duration(r.p.WarmupS * float64(time.Second)) }

// traced reports whether window w records spans: every second window
// of a traced run, so the untraced ones between give the overhead.
func (r *run) traced(w int) bool { return r.p.Trace && w >= 0 && w%2 == 1 }

// sampled picks the seeded 1-in-ShadowEvery ops of traced windows that
// are replayed as shadow spans.
func (r *run) sampled(w int, seq int64) bool {
	if !r.traced(w) {
		return false
	}
	x := uint64(seq) ^ uint64(r.p.Seed)*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x%uint64(r.p.ShadowEvery) == 0
}

func (r *run) addOps(ops []opRec) {
	r.mu.Lock()
	r.ops = append(r.ops, ops...)
	r.mu.Unlock()
}

func (r *run) addShadow(s shadowSample) {
	r.mu.Lock()
	r.shadow = append(r.shadow, s)
	r.mu.Unlock()
}

func (r *run) addVerify(d time.Duration, mismatches int) {
	r.mu.Lock()
	r.verify += d
	r.mismatches += mismatches
	r.mu.Unlock()
}

// layer records a per-layer metric computed from one number. The first
// measurement of a name stands: a workload that times a layer call on
// its own ops keeps that over the shadow replay's estimate.
func (r *run) layer(name, unit string, v float64, n int) {
	r.setLayer(Metric{Name: name, Unit: unit, Value: v, Q1: v, Q3: v, N: n})
}

func (r *run) setLayer(m Metric) {
	if _, ok := r.layers[m.Name]; !ok {
		r.layers[m.Name] = m
	}
}

// layerDist records a per-layer metric as the median (pct 50) or a
// percentile of samples, or leaves it out when too few samples lie
// beyond the percentile.
func (r *run) layerDist(name, unit string, xs []float64, pct float64) {
	if pct == 50 {
		if len(xs) > 0 {
			r.setLayer(summarize(name, unit, xs))
		}
		return
	}
	if v, err := stats.Percentile(xs, pct); err == nil {
		r.layer(name, unit, v, len(xs))
	}
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak for peakRSSMB: the kernel lowers a
// process's VmHWM to its current resident set.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the peak resident set, of a process
// ("self" for this one) since it started or since resetPeakRSS.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sleepUntil waits for t or ctx, whichever comes first.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// perWindow splits the measured ops by window.
func (r *run) perWindow() [][]opRec {
	byWin := make([][]opRec, len(r.wins))
	for _, o := range r.ops {
		if o.window >= 0 && o.window < len(byWin) {
			byWin[o.window] = append(byWin[o.window], o)
		}
	}
	return byWin
}

// throughput is completed ops per second of window w.
func throughput(ops []opRec, w windowRec) float64 {
	n := 0
	for _, o := range ops {
		if !o.failed {
			n++
		}
	}
	return float64(n) / w.wall.Seconds()
}

// endToEnd computes the metrics of the untraced windows and of set-up;
// result keeps those of EndToEndNames as end-to-end metrics.
func (r *run) endToEnd(limit time.Duration, setups []time.Duration) []Metric {
	var thr, p50, p99, within, cpu, peak []float64
	var pooled []float64
	var cpuTotal time.Duration
	opsTotal := 0
	p99Windows := true
	for w, ops := range r.perWindow() {
		if r.traced(w) || len(ops) == 0 {
			continue
		}
		var lat []float64
		ok := 0
		for _, o := range ops {
			if o.failed {
				continue
			}
			lat = append(lat, ms(o.lat))
			if o.lat <= limit && !o.refused {
				ok++
			}
		}
		pooled = append(pooled, lat...)
		thr = append(thr, throughput(ops, r.wins[w]))
		within = append(within, float64(ok)/float64(len(ops)))
		cpu = append(cpu, ms(r.wins[w].cpu)/float64(len(ops)))
		peak = append(peak, r.wins[w].peakMB)
		cpuTotal += r.wins[w].cpu
		opsTotal += len(ops)
		if len(lat) > 0 {
			p50 = append(p50, stats.Median(lat))
		}
		if v, err := stats.Percentile(lat, 99); err == nil {
			p99 = append(p99, v)
		} else {
			p99Windows = false
		}
	}
	// The p99 is a per-layer metric: on this host class it does not
	// repeat within its bound from run to run (README.md).
	if p99Windows {
		r.setLayer(summarize("latency_p99_ms", "ms", p99))
	} else {
		// Some window was too short for its own p99: take it over the
		// pooled samples of all untraced windows instead.
		r.layerDist("latency_p99_ms", "ms", pooled, 99)
	}
	// CPU per op is the ratio of the sums: the daemon's CPU clock ticks
	// at 10 ms, too coarse for one window's share. The quartiles still
	// come from the windows.
	cpuPerOp := summarize("cpu_ms_per_op", "ms", cpu)
	cpuPerOp.Value = ms(cpuTotal) / float64(opsTotal)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return []Metric{
		summarize("ops_per_s", "1/s", thr),
		summarize("latency_p50_ms", "ms", p50),
		summarize("within_limit_share", "share", within),
		cpuPerOp,
		summarize("peak_rss_mb", "MB", peak),
		summarize("setup_s", "s", setupS),
	}
}

func summarize(name, unit string, xs []float64) Metric {
	q1, q2, q3 := stats.Quartiles(xs)
	return Metric{Name: name, Unit: unit, Value: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// traceOverhead compares the throughput of traced and untraced windows.
func (r *run) traceOverhead() {
	var plain, traced []float64
	for w, ops := range r.perWindow() {
		if len(ops) == 0 {
			continue
		}
		if r.traced(w) {
			traced = append(traced, throughput(ops, r.wins[w]))
		} else {
			plain = append(plain, throughput(ops, r.wins[w]))
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		r.layer("bench.trace_overhead_share", "share", 1-stats.Median(traced)/stats.Median(plain), len(traced))
	}
}

// limit is the workload's latency limit.
func (r *run) limit() time.Duration {
	l := r.p.ServeLimitMS
	switch r.name {
	case BatchCold:
		l = r.p.BatchLimitMS
	case WhatifEdit:
		l = r.p.WhatifLimitMS
	}
	return time.Duration(l * float64(time.Millisecond))
}

// result assembles the workload's Result.
func (r *run) result(setups []time.Duration) (*Result, error) {
	res := &Result{
		Workload:     r.name,
		Why:          Why[r.name],
		Mismatches:   r.mismatches,
		Drops:        r.drops,
		CorpusDigest: r.corpusDigest,
		OpsDigest:    r.opsDigest,
	}
	for _, m := range r.endToEnd(r.limit(), setups) {
		if slices.Contains(EndToEndNames, m.Name) {
			res.EndToEnd = append(res.EndToEnd, m)
		} else {
			r.setLayer(m)
		}
	}
	var lags []float64
	for _, o := range r.ops {
		if o.window >= 0 {
			res.Attempted++
			if o.failed {
				res.Failed++
			}
			lags = append(lags, ms(o.lag))
		}
	}
	res.Correct = res.Mismatches == 0 && res.Drops == 0 && res.Attempted > 0
	if res.Attempted > 0 {
		r.layer("failed_share", "share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	}
	r.layerDist("bench.gen_lag_ms.p99", "ms", lags, 99)
	r.layer("bench.verify_s", "s", r.verify.Seconds(), r.mismatches)
	if r.p.Trace {
		r.traceOverhead()
	}
	// The generator falls behind when it issues more than one op in a
	// hundred later than the whole op may take: such ops miss the
	// latency limit before the program sees them. In the open loop the
	// lag includes waiting for the one request connection, which a GET
	// may hold.
	if lag, ok := r.layers["bench.gen_lag_ms.p99"]; ok && lag.Value > ms(r.limit()) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("bench.gen_lag_ms.p99 = %.3f ms > the %g ms limit: the generator fell behind", lag.Value, ms(r.limit())))
	}
	names := make([]string, 0, len(r.layers))
	for n := range r.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.PerLayer = append(res.PerLayer, r.layers[n])
	}
	if r.p.Trace {
		res.Tree = r.rec.tree()
		if r.env.TraceDir != "" {
			if err := r.rec.write(r.env.TraceDir, r.name); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
