// Command relbench runs the relative scheduler's benchmark and compares
// result files. See bench/README.md.
//
//	relbench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	relbench compare [-bench BENCHMARK.json] A.json[,A2.json...] B.json[,B2.json...]
//
// A run builds cmd/relsched, runs each workload in a child process of
// its own, prints every metric with its unit, and ends with one JSON
// line: the end-to-end metrics, or with -trace 1 the per-layer ones.
// It exits 1 when any output disagreed with its expectation.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	relbench "repro/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compare(os.Args[2:])
	} else {
		err = run(ctx, os.Args[1:])
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("relbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(relbench.Workloads, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload, split into 10 windows")
	trace := fs.Int("trace", 0, "1 alternates traced windows and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "directory for span files of a traced run (default WORKDIR/trace, or a new temporary directory)")
	out := fs.String("out", "", "write the results JSON here (never inside the repository)")
	workdir := fs.String("workdir", "", "directory for the relsched build (default: a temporary one)")
	child := fs.Bool("child", false, "run one workload in this process and print its result as JSON")
	relsched := fs.String("relsched", "", "built relsched binary (set by the parent for its children)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	p := relbench.DefaultParams(*seed, *seconds)
	p.Trace = *trace == 1

	if *child {
		res, err := relbench.Run(ctx, *workload, p, relbench.Env{Relsched: *relsched, TraceDir: *traceOut, Log: os.Stderr})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	names := relbench.Workloads
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			return fmt.Errorf("unknown workload %q (want all or one of %s)", *workload, strings.Join(names, ", "))
		}
		names = []string{*workload}
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	for _, path := range []string{*out, *traceOut, *workdir} {
		if err := outsideRepo(root, path); err != nil {
			return err
		}
	}
	switch {
	case *traceOut == "" && *workdir != "":
		*traceOut = filepath.Join(*workdir, "trace")
	case *traceOut == "" && p.Trace:
		// The temporary workdir goes at exit; the spans must not.
		if *traceOut, err = os.MkdirTemp("", "relbench-trace-"); err != nil {
			return err
		}
	}
	if *workdir == "" {
		if *workdir, err = os.MkdirTemp("", "relbench-"); err != nil {
			return err
		}
		defer os.RemoveAll(*workdir)
	} else if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	bin, err := buildRelsched(ctx, root, *workdir)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	var results []*relbench.Result
	for _, name := range names {
		res, err := runChild(ctx, self, name, p, bin, *traceOut)
		if err != nil {
			return err
		}
		results = append(results, res)
		relbench.Report(os.Stdout, res)
	}
	if p.Trace {
		fmt.Printf("spans in %s\n", *traceOut)
	}
	if *out != "" {
		data, err := json.MarshalIndent(relbench.Results{Header: relbench.NewHeader(root, p), Workloads: results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("results in %s\n", *out)
	}
	line, err := relbench.NewContract(results, p.Trace)
	if err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !line.Correct {
		return errors.New("an output disagreed with its expectation")
	}
	return nil
}

// runChild runs one workload in a process of its own, so its CPU time
// and peak memory are its own.
func runChild(ctx context.Context, self, name string, p relbench.Params, bin, traceOut string) (*relbench.Result, error) {
	budget := time.Duration((p.WarmupS+float64(p.Windows)*p.WindowS)*3*float64(time.Second)) + 2*time.Minute
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	trace := "0"
	if p.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", name,
		"-seed", strconv.FormatInt(p.Seed, 10),
		"-seconds", strconv.FormatFloat(float64(p.Windows)*p.WindowS, 'g', -1, 64),
		"-trace", trace,
		"-trace-out", traceOut,
		"-relsched", bin)
	cmd.Stderr = os.Stderr
	// SIGTERM lets the child drain the daemon it started.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res relbench.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s: reading its result: %w", name, err)
	}
	return &res, nil
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}

// outsideRepo refuses output paths inside the checkout, except under
// the ignored .bench_build directory, so a run never changes what git
// tracks.
func outsideRepo(root, path string) error {
	if path == "" {
		return nil
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return nil
	}
	if rel == ".bench_build" || strings.HasPrefix(rel, ".bench_build"+string(filepath.Separator)) {
		return nil
	}
	return fmt.Errorf("refusing to write %s inside the repository; use a path outside it or under .bench_build", path)
}

// buildRelsched builds the daemon under test from the checkout.
func buildRelsched(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "relsched")
	if abs, err := filepath.Abs(bin); err == nil {
		bin = abs
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/relsched")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/relsched: %w", err)
	}
	return bin, nil
}

func compare(args []string) error {
	fs := flag.NewFlagSet("relbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "", "BENCHMARK.json with the bounds (default: the nearest one above the working directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: relbench compare [-bench BENCHMARK.json] A.json[,A2.json...] B.json[,B2.json...]")
	}
	if *benchPath == "" {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		*benchPath = filepath.Join(root, "BENCHMARK.json")
	}
	var bench relbench.Benchmark
	if err := readJSON(*benchPath, &bench); err != nil {
		return err
	}
	sides := make([][]relbench.Results, 2)
	for i, list := range fs.Args() {
		for _, path := range strings.Split(list, ",") {
			var rs relbench.Results
			if err := readJSON(path, &rs); err != nil {
				return err
			}
			sides[i] = append(sides[i], rs)
		}
	}
	rows, err := relbench.Compare(bench, sides[0], sides[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "spread", "verdict")
	worse := 0
	for _, r := range rows {
		verdict := r.Verdict
		if r.Gain {
			verdict += " (paired-rule gain)"
		}
		if r.Verdict == "worse" {
			worse++
		}
		fmt.Printf("%-13s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*(r.B-r.A)/r.A, 100*r.Bound, 100*r.Spread, verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
