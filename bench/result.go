package relbench

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/stats"
)

// Why records the reason each workload exists; BENCHMARK.json carries
// the same reasons in one line each.
var Why = map[string]string{
	ServeSteady: "daemon steady state: open loop at 300 jobs/s, Zipf draws over 589 graphs that fit the 1024-entry cache, so HTTP, JSON, parse and render do nearly all the work",
	ServeChurn:  "daemon capacity without cache help: closed loop of 2 over 4096 distinct graphs (70% N=40, 30% N=200), 4x the cache, so most jobs miss, evict and run relsched",
	BatchCold:   "relsched does most of the work: parse then engine.Schedule of ~1000 distinct graphs a lap on a fresh engine, up to N=1000, 10% ill-posed and repaired, no render",
	WhatifEdit:  "the delta path: 2 sessions of engine.ApplyDelta edits, each followed by a warm engine read, on N=2000 graphs; cold-path gains paid for by the delta path show here",
}

// Metric is one measurement: the median over windows (or the single
// value) with its quartiles and the number of samples behind it.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// Result is one workload's outcome.
type Result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Correct is false when any output disagreed with its expectation
	// or the daemon's event stream dropped events.
	Correct    bool `json:"correct"`
	Attempted  int  `json:"attempted"`
	Failed     int  `json:"failed"`
	Mismatches int  `json:"mismatches"`
	Drops      int  `json:"sse_drops"`
	// Invalid lists reasons the numbers do not mean what they claim,
	// such as an open loop that fell behind its schedule.
	Invalid      []string   `json:"invalid,omitempty"`
	CorpusDigest string     `json:"corpus_digest"`
	OpsDigest    string     `json:"ops_digest"`
	EndToEnd     []Metric   `json:"end_to_end"`
	PerLayer     []Metric   `json:"per_layer,omitempty"`
	Tree         []TreeLine `json:"trace_tree,omitempty"`
}

// Metric returns the named end-to-end or per-layer metric.
func (r *Result) Metric(name string) (Metric, bool) {
	for _, ms := range [][]Metric{r.EndToEnd, r.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Header identifies the host, the build and the settings of a run.
type Header struct {
	Schema     string `json:"schema"`
	TimeUTC    string `json:"time_utc"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Params     Params `json:"params"`
	// SteadyRate is serve-steady's frozen rate in jobs/s.
	SteadyRate int `json:"steady_rate_per_s"`
}

// Results is the file -out writes and compare reads.
type Results struct {
	Header    Header    `json:"header"`
	Workloads []*Result `json:"workloads"`
}

// NewHeader describes this host; root is the repository checkout.
func NewHeader(root string, p Params) Header {
	h := Header{
		Schema:     "relbench/v1",
		TimeUTC:    time.Now().UTC().Format(time.RFC3339),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Params:     p,
		SteadyRate: SteadyRate,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// Contract is the one-line summary the last line of standard output
// carries: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
type Contract struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]ContractMetric `json:"metrics"`
}

// ContractMetric is one value of the summary line.
type ContractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// EndToEndNames are the end-to-end metrics an untraced run's summary
// line carries, in BENCHMARK.json's order. Throughput, median latency
// and CPU per op are measured the same way but are per-layer metrics:
// on this host class they do not repeat within a tenth from run to run
// (README.md, "End-to-end metrics").
var EndToEndNames = []string{"within_limit_share", "peak_rss_mb", "setup_s"}

// PerLayerNames are the per-layer metrics every workload reports and
// a traced run's summary line carries, in BENCHMARK.json's order.
var PerLayerNames = []string{
	"ops_per_s",
	"latency_p50_ms",
	"cpu_ms_per_op",
	"latency_p99_ms",
	"cgio.parse_us.p50",
	"cgio.render_us.p50",
	"engine.fingerprint_us.p50",
	"engine.schedule_us.p50",
	"engine.overhead_us.p50",
	"engine.busy_share",
	"engine.cache.hit_ratio",
	"engine.cache.evictions_per_op",
	"engine.cache.suppressed_share",
	"relsched.analyze_us.p50",
	"relsched.check_sweep_us.p50",
	"relsched.sweeps_per_job",
	"relsched.sweep_bound_ratio",
	"runtime.gc_per_kop",
	"failed_share",
	"bench.gen_lag_ms.p99",
	"bench.verify_s",
	"bench.trace_overhead_share",
}

// NewContract builds the summary line of one or more workloads. With
// several, each metric name is prefixed by its workload.
func NewContract(results []*Result, traced bool) (Contract, error) {
	c := Contract{Correct: true, Metrics: map[string]ContractMetric{}}
	for _, r := range results {
		c.Correct = c.Correct && r.Correct
		c.Attempted += r.Attempted
		c.Failed += r.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.Workload + ":"
		}
		var ms []Metric
		if traced {
			for _, name := range PerLayerNames {
				m, ok := r.Metric(name)
				if !ok {
					return c, fmt.Errorf("%s: traced run did not measure %s", r.Workload, name)
				}
				ms = append(ms, m)
			}
		} else {
			ms = r.EndToEnd
		}
		for _, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return c, fmt.Errorf("%s: %s is %v", r.Workload, m.Name, m.Value)
			}
			c.Metrics[prefix+m.Name] = ContractMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return c, nil
}

// Report prints a result for a person to read.
func Report(w io.Writer, r *Result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s: %s\n", r.Workload, r.Why)
	fmt.Fprintf(w, "   %s: %d ops measured, %d failed, %d oracle mismatches, %d SSE drops; corpus %s, ops %s\n",
		verdict, r.Attempted, r.Failed, r.Mismatches, r.Drops, r.CorpusDigest, r.OpsDigest)
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "   INVALID: %s\n", why)
	}
	printMetrics := func(title string, ms []Metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "   %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "     %-34s %12.4f %-6s [%.4f, %.4f] n=%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	printMetrics("end to end (median over windows [q1, q3]):", r.EndToEnd)
	printMetrics("per layer:", r.PerLayer)
	if len(r.Tree) > 0 {
		fmt.Fprintf(w, "   spans (mean µs per parent; each parent = its children + unattributed):\n")
		for _, t := range r.Tree {
			fmt.Fprintf(w, "     %s%-*s %12.1f  n=%d\n", strings.Repeat("  ", t.Depth), 30-2*t.Depth, t.Name, t.MeanUS, t.Count)
		}
	}
}

// Benchmark is the part of BENCHMARK.json compare reads.
type Benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Row is one (workload, end-to-end metric) line of a comparison.
type Row struct {
	Workload, Metric, Unit string
	// A and B are the medians of each side's runs; Spread is A's
	// run-to-run quartile spread as a share of its median.
	A, B, Bound, Spread float64
	// Verdict is ok, worse, or unresolved (A's own runs spread wider
	// than the bound).
	Verdict string
	// Gain notes a gain the paired rule supports (>= 10 runs a side).
	Gain bool
}

// Compare checks side B against side A (the baseline) for every
// workload both sides ran and every end-to-end metric of bench.
func Compare(bench Benchmark, a, b []Results) ([]Row, error) {
	values := func(side []Results, workload, metric string) ([]float64, float64) {
		var vs []float64
		var within float64
		for _, rs := range side {
			for _, r := range rs.Workloads {
				if r.Workload != workload {
					continue
				}
				if m, ok := r.Metric(metric); ok {
					vs = append(vs, m.Value)
					if m.Value != 0 {
						within = (m.Q3 - m.Q1) / math.Abs(m.Value)
					}
				}
			}
		}
		return vs, within
	}
	var names []string
	seen := map[string]bool{}
	for _, rs := range a {
		for _, r := range rs.Workloads {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	var rows []Row
	for _, wl := range names {
		for _, bm := range bench.EndToEnd {
			av, aWithin := values(a, wl, bm.Name)
			bv, _ := values(b, wl, bm.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			lower := bm.Better == "lower"
			row := Row{Workload: wl, Metric: bm.Name, Unit: bm.Unit, A: stats.Median(av), B: stats.Median(bv), Bound: bm.Bound}
			// One run gives no run-to-run spread; its windows' spread
			// stands in for it.
			row.Spread = aWithin
			if len(av) > 1 {
				row.Spread = stats.Spread(av)
			}
			worse := (row.B - row.A) / math.Abs(row.A)
			if !lower {
				worse = -worse
			}
			allBetter := true
			for _, x := range av {
				for _, y := range bv {
					if (lower && y >= x) || (!lower && y <= x) {
						allBetter = false
					}
				}
			}
			switch {
			case row.Spread > bm.Bound && !allBetter:
				row.Verdict = "unresolved"
			case worse > bm.Bound:
				row.Verdict = "worse"
			default:
				row.Verdict = "ok"
			}
			if p, err := stats.ComparePaired(av, bv, lower); err == nil {
				row.Gain = p.Gain
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two sides share no workload with an end-to-end metric of BENCHMARK.json")
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	return rows, nil
}
