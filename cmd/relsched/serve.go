package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/trace"
)

// serveUsage documents the serve subcommand.
const serveUsage = `usage: relsched serve [flags]

Runs the scheduling engine as a long-running HTTP/JSON daemon
(internal/serve): job intake at POST /v1/jobs (inline .cg source, JSON
or JSONL batch), results at GET /v1/jobs/{id}, live status at
/v1/status, hot config reload at POST /v1/admin/config, and the full
observability surface (/metrics, /healthz, /readyz, /debug/trace) on
the same listener. SIGTERM or SIGINT drains gracefully: intake stops
(readyz flips 503), every admitted job finishes, then the process
exits. The HTTP API, admission semantics, and drain lifecycle are
documented in docs/SERVICE.md.

flags:
  -addr addr       listen address (default localhost:8080)
  -workers n       serving workers (default half the CPUs, rounded
                   up); hot-reloadable
  -cache n         memoization cache capacity in entries (0 = engine
                   default); hot-reloadable
  -nocache         disable memoization
  -queue n         admission queue depth; a full queue sheds jobs with
                   429 + Retry-After (default 256)
  -results n       finished results retained for GET (default 4096;
                   oldest evicted first)
  -rate f          per-tenant sustained admission rate in jobs/second,
                   keyed by the X-Tenant header (0 = unlimited)
  -burst n         per-tenant token-bucket burst (default ceil(rate))
  -tenant-quota n  max jobs one tenant may have queued+running (0 = off)
  -timeout d       per-job deadline (e.g. 500ms; 0 = none)
  -drain-timeout d grace period for in-flight jobs on SIGTERM before the
                   process force-exits nonzero (default 30s)
  -log format      structured logs to stderr: jsonl or text
  -log-level l     minimum log level: debug, info (default), warn, error
  -log-file file   write logs to file instead of stderr
  -flight-dir dir  enable the flight recorder: error/timeout/ill-posed/
                   latency-outlier jobs and admission shed storms dump
                   diagnostic bundles into dir
  -flight-threshold d
                   flight latency trigger: dump any job slower than d
  -flight-p95x f   flight adaptive trigger: dump any job slower than f ×
                   the running p95 of job durations (f > 1)
  -shed-storm n    flight shed-storm trigger: dump a bundle when n jobs
                   are shed within 10s (requires -flight-dir; default 32)
  -prof-dir dir    enable the self-profiling plane: jobs run under pprof
                   labels {stage, tenant, design, mode}, and flight
                   dumps, SLO burns, and POST /v1/admin/profile capture
                   CPU+heap profiles into dir (rate-limited)
  -prof-cpu d      CPU profile recording window per capture (default 2s)
  -prof-interval d minimum spacing between captures (default 30s)
  -prof-mutex n    runtime mutex profile fraction (1 in n events; 0 = off)
  -prof-block n    runtime block profile rate in ns (0 = off)
  -runtime-interval d
                   Go runtime telemetry poll interval for the
                   runtime.* metrics and /v1/status (default 5s;
                   negative disables the bridge)
  -slo-latency d   enable the SLO tracker with this per-job latency
                   objective (admission to terminal state; e.g. 100ms)
  -slo-target f    fraction of jobs that must meet -slo-latency
                   (default 0.99)
  -slo-error-target f
                   fraction of jobs that must succeed (default 0.999)
  -slo-burn f      multi-window burn-rate threshold that fires a flight
                   bundle + profile capture (default 10)
  -slo-fast d      fast burn window (default 5m)
  -slo-slow d      slow burn window (default 1h)
`

// runServe implements `relsched serve`. sig delivers the shutdown
// signal; the CLI passes a channel wired to SIGTERM/SIGINT, tests
// inject their own.
func runServe(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprint(os.Stderr, serveUsage) }
	addr := fs.String("addr", "localhost:8080", "listen address")
	workers := fs.Int("workers", 0, "serving workers (0 = half the CPUs, rounded up)")
	cacheCap := fs.Int("cache", 0, "memoization cache capacity (0 = engine default)")
	nocache := fs.Bool("nocache", false, "disable memoization")
	queueDepth := fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth")
	results := fs.Int("results", serve.DefaultResultCapacity, "finished results retained")
	rate := fs.Float64("rate", 0, "per-tenant admission rate in jobs/second (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-tenant token-bucket burst")
	tenantQuota := fs.Int("tenant-quota", 0, "max queued+running jobs per tenant (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "per-job timeout")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	logFormat := fs.String("log", "", "structured log format: jsonl or text")
	logLevel := fs.String("log-level", "info", "minimum log level")
	logFile := fs.String("log-file", "", "write logs to this file instead of stderr")
	flightDir := fs.String("flight-dir", "", "enable the flight recorder, dumping bundles into this directory")
	flightThreshold := fs.Duration("flight-threshold", 0, "flight latency trigger: fixed duration threshold")
	flightP95x := fs.Float64("flight-p95x", 0, "flight latency trigger: multiple of the running p95 (> 1)")
	shedStorm := fs.Int("shed-storm", 32, "flight shed-storm trigger: sheds within 10s that dump a bundle")
	profDir := fs.String("prof-dir", "", "enable pprof labeling and triggered CPU+heap capture into this directory")
	profCPU := fs.Duration("prof-cpu", 2*time.Second, "CPU profile recording window per capture")
	profInterval := fs.Duration("prof-interval", 30*time.Second, "minimum spacing between profile captures")
	profMutex := fs.Int("prof-mutex", 0, "runtime mutex profile fraction (1 in n events; 0 = off)")
	profBlock := fs.Int("prof-block", 0, "runtime block profile rate in ns (0 = off)")
	runtimeInterval := fs.Duration("runtime-interval", 5*time.Second, "runtime telemetry poll interval (negative disables)")
	sloLatency := fs.Duration("slo-latency", 0, "enable the SLO tracker with this latency objective (0 = off)")
	sloTarget := fs.Float64("slo-target", 0, "fraction of jobs that must meet -slo-latency (default 0.99)")
	sloErrTarget := fs.Float64("slo-error-target", 0, "fraction of jobs that must succeed (default 0.999)")
	sloBurn := fs.Float64("slo-burn", 0, "multi-window burn-rate threshold (default 10)")
	sloFast := fs.Duration("slo-fast", 0, "fast burn window (default 5m)")
	sloSlow := fs.Duration("slo-slow", 0, "slow burn window (default 1h)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Arg(0))
	}
	if *cacheCap < 0 {
		return fmt.Errorf("-cache must be >= 0 (0 selects the engine default, %d)", engine.DefaultCacheCapacity)
	}

	logger, logCleanup, err := buildLogger(*logFormat, *logLevel, *logFile)
	if err != nil {
		return err
	}
	defer logCleanup()

	// One registry and one tracer for everything behind the listener:
	// engine stages, admission counters, flight health — a single
	// /metrics scrape and one /debug/trace window cover the daemon.
	reg := obs.NewRegistry()
	tracer := trace.New(trace.Options{})
	var recorder *flight.Recorder
	if *flightDir != "" {
		recorder, err = flight.New(flight.Options{
			Dir:                *flightDir,
			FixedThreshold:     *flightThreshold,
			P95Factor:          *flightP95x,
			ShedStormThreshold: *shedStorm,
			Metrics:            reg,
			Logger:             logger,
		})
		if err != nil {
			return err
		}
	} else if *flightThreshold != 0 || *flightP95x != 0 {
		return fmt.Errorf("-flight-threshold and -flight-p95x require -flight-dir")
	}

	// The self-profiling plane: labeling is always on for a daemon (the
	// per-job cost is two label-set swaps, paid only on the cache-miss
	// pipeline for stages); triggered capture needs -prof-dir.
	profiler, err := prof.New(prof.Options{
		Labels:        true,
		Dir:           *profDir,
		CPUDuration:   *profCPU,
		MinInterval:   *profInterval,
		MutexFraction: *profMutex,
		BlockRate:     *profBlock,
		Metrics:       reg,
		Logger:        logger,
	})
	if err != nil {
		return err
	}

	var sloCfg *serve.SLOConfig
	if *sloLatency > 0 {
		sloCfg = &serve.SLOConfig{
			LatencyObjective: *sloLatency,
			LatencyTarget:    *sloTarget,
			ErrorTarget:      *sloErrTarget,
			FastWindow:       *sloFast,
			SlowWindow:       *sloSlow,
			BurnThreshold:    *sloBurn,
		}
	} else if *sloTarget != 0 || *sloErrTarget != 0 || *sloBurn != 0 || *sloFast != 0 || *sloSlow != 0 {
		return fmt.Errorf("-slo-target, -slo-error-target, -slo-burn, -slo-fast, and -slo-slow require -slo-latency")
	}

	var sampler *obs.RuntimeSampler
	if *runtimeInterval >= 0 {
		sampler = obs.NewRuntimeSampler(reg)
	}

	eng := engine.New(engine.Options{
		Workers:       *workers,
		DisableCache:  *nocache,
		JobTimeout:    *timeout,
		CacheCapacity: *cacheCap,
		Metrics:       reg,
		Tracer:        tracer,
		Logger:        logger,
		Flight:        recorder,
		Prof:          profiler,
		// The daemon exports the registry on /metrics: dashboards
		// expect complete engine.stage.* histograms, not just the
		// trace-sampled subset, so force stage timing on.
		StageMetrics: true,
	})
	srv, err := serve.New(serve.Options{
		Engine:          eng,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		ResultCapacity:  *results,
		RatePerTenant:   *rate,
		Burst:           *burst,
		TenantQuota:     *tenantQuota,
		Tracer:          tracer,
		Logger:          logger,
		Flight:          recorder,
		Prof:            profiler,
		SLO:             sloCfg,
		Runtime:         sampler,
		RuntimeInterval: *runtimeInterval,
	})
	if err != nil {
		return err
	}

	hs, err := serve.StartHTTP(*addr, srv.Handler())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "relsched serve on http://%s — POST /v1/jobs, GET /v1/jobs/{id}, /v1/status, /metrics, /healthz, /readyz (workers=%d queue=%d)\n",
		hs.Addr(), srv.Workers(), *queueDepth)

	<-sig
	fmt.Fprintf(stdout, "shutdown signal received; draining (timeout %v)\n", *drainTimeout)

	// Drain order: stop intake and flush the admitted jobs first (the
	// exactly-once promise), then shut the listener down so late GETs
	// and final scrapes still answer during the flush.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	closeErr := hs.Close()
	// Let an in-flight CPU capture seal its file before the process
	// exits — a torn .pprof is worse than a slightly longer shutdown.
	profiler.Wait()
	if drainErr != nil {
		return fmt.Errorf("drain did not complete within %v: %w", *drainTimeout, drainErr)
	}
	if closeErr != nil {
		return closeErr
	}
	st := srv.Status()
	fmt.Fprintf(stdout, "drained: %d done, %d failed, queue empty; bye\n", st.JobsDone, st.JobsFailed)
	return nil
}

// serveSignals returns the channel the CLI waits on: SIGTERM (the
// orchestrator's stop) and SIGINT (a human's ^C) both start the drain.
func serveSignals() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	return sig
}
