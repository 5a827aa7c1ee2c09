// Command flexsim runs one flit-level network simulation with true deadlock
// detection and prints the measured characterization.
//
// Example (the paper's default configuration at 60% load with DOR):
//
//	flexsim -k 16 -n 2 -routing dor -vcs 1 -load 0.6
//
// The run is resilient: SIGINT/SIGTERM or -timeout stops the cycle loop
// within one detector period and prints the partial characterization, and
// -cache-dir/-resume serve a previously completed identical configuration
// from the content-addressed result cache instead of re-running it. Pass
// -cpuprofile/-memprofile to capture pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/obs"
	"flexsim/internal/prof"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	cfg := sim.Default()
	extras := flags.BindConfig(flag.CommandLine, &cfg)
	common := flags.BindCommon(flag.CommandLine)
	flag.Parse()
	extras.Apply(&cfg)
	if err := extras.LoadFaultSchedule(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		return 1
	}

	ctx, cancel := flags.SignalContext(common.Timeout)
	defer cancel()

	inst, finish, err := common.Instrumentation(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		return 1
	}
	defer func() {
		if err := finish(); err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
			code = 1
		}
	}()
	cfg.Instrumentation = inst

	var tracers trace.Multi
	var ring *trace.Ring
	if extras.TraceLast > 0 {
		ring = &trace.Ring{Cap: extras.TraceLast}
		tracers = append(tracers, ring)
	}
	var incidents *obs.IncidentLog
	if extras.IncidentsOut != "" {
		if ring == nil {
			// Give post-mortems event context even without -trace-last.
			ring = &trace.Ring{Cap: 256}
			tracers = append(tracers, ring)
		}
		incidents = &obs.IncidentLog{LastEvents: ring}
		cfg.Incidents = incidents
		cfg.IncidentDOT = extras.IncidentsDOT
	}
	var jsonTrace *trace.JSONWriter
	if extras.TraceJSON != "" {
		f, err := os.Create(extras.TraceJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
			return 1
		}
		defer f.Close()
		jsonTrace = &trace.JSONWriter{W: f}
		tracers = append(tracers, jsonTrace)
	}
	switch len(tracers) {
	case 0:
	case 1:
		cfg.Tracer = tracers[0]
	default:
		cfg.Tracer = tracers
	}
	if common.HTTPAddr != "" {
		live := &obs.Live{}
		cfg.MetricsLive = live
		if cfg.MetricsEvery == 0 {
			cfg.MetricsEvery = common.MetricsEvery
		}
		srv, err := obs.Serve(common.HTTPAddr, obs.WithLive(live))
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "flexsim: serving /metrics on http://%s\n", srv.Addr())
	}

	stopProf, err := prof.Start(common.CPUProfile, common.MemProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
		}
	}()

	cache, err := common.OpenCache()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		return 1
	}

	// One engine for both paths: the single run goes through the same
	// resilient scheduler the sweeps use, so cancellation, panic isolation
	// and the result cache behave identically everywhere.
	p := runner.Map(ctx, []sim.Config{cfg}, runner.Options{Cache: cache})[0]
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
		}
	}
	res := p.Result
	if res == nil {
		fmt.Fprintln(os.Stderr, "flexsim:", p.Err)
		return 1
	}
	switch {
	case p.Status == runner.Cached:
		fmt.Fprintf(os.Stderr, "flexsim: result served from cache %s (key %s...)\n",
			cache.Dir(), runner.Key(cfg)[:12])
	case res.Interrupted:
		fmt.Fprintf(os.Stderr, "flexsim: interrupted — partial results over %d measured cycles\n",
			res.Cycles)
	}

	fmt.Printf("network:            %d-ary %d-cube, bidirectional=%v, %d VC(s), buffer=%d flits\n",
		cfg.K, cfg.N, cfg.Bidirectional, cfg.VCs, cfg.BufferDepth)
	fmt.Printf("routing/traffic:    %s / %s, %d-flit messages\n", cfg.Routing, cfg.Traffic, cfg.MsgLen)
	fmt.Printf("offered load:       %.3f (%.4f flits/node/cycle offered, %.4f delivered)\n",
		cfg.Load, res.OfferedRate(), res.Throughput())
	fmt.Printf("saturated:          %v\n", res.Saturated)
	fmt.Printf("delivered:          %d messages (%d via recovery), mean latency %.1f cycles\n",
		res.Delivered, res.Recovered, res.MeanLatency())
	fmt.Printf("latency tail:       p50 %d, p95 %d, p99 %d, max %d cycles\n",
		res.Latency.Quantile(0.50), res.Latency.Quantile(0.95),
		res.Latency.Quantile(0.99), res.Latency.Max())
	fmt.Printf("congestion:         mean %.1f active, %.1f blocked (%.1f%%), %.1f queued at sources\n",
		res.MeanActive, res.MeanBlocked, 100*res.BlockedFraction(), res.MeanQueued)
	fmt.Printf("deadlocks:          %d (%d single-cycle, %d multi-cycle), normalized %.6f per message\n",
		res.Deadlocks, res.SingleCycle, res.MultiCycle, res.NormalizedDeadlocks())
	if res.Invocations > 0 {
		fmt.Printf("detector:           %d passes (%.1f%% gated), build mean %.1f µs p99 %.1f µs, analyze mean %.1f µs\n",
			res.Invocations, 100*float64(res.GatedInvocations)/float64(res.Invocations),
			res.DetectBuildTime.Mean()/1e3, float64(res.DetectBuildTime.Quantile(0.99))/1e3,
			res.DetectAnalyzeTime.Mean()/1e3)
	}
	if res.Deadlocks > 0 {
		fmt.Printf("deadlock sets:      mean %.2f msgs (max %d); resource sets mean %.2f VCs (max %d)\n",
			res.MeanDeadlockSet(), res.MaxDeadlockSet, res.MeanResourceSet(), res.MaxResourceSet)
		fmt.Printf("knot cycle density: mean %.2f (max %d); dependent msgs mean %.2f per deadlock\n",
			res.MeanKnotCycles(), res.MaxKnotCycles, res.MeanDependent())
	}
	if res.FaultEvents > 0 || res.Killed > 0 {
		fmt.Printf("faults:             %d events applied, %d active at end; killed %d messages (%.2f%%), %d unroutable\n",
			res.FaultEvents, res.FaultsActiveEnd, res.Killed, 100*res.KilledFraction(), res.Unroutable)
	}
	if res.CensusSamples > 0 {
		capped := ""
		if res.CensusCapped {
			capped = " (capped)"
		}
		fmt.Printf("cycle census:       mean %.1f cycles per check, max %d%s\n",
			res.MeanCensusCycles(), res.MaxCycles, capped)
	}
	if ring != nil && extras.TraceLast > 0 {
		fmt.Printf("last %d of %d lifecycle events:\n", len(ring.Events()), ring.Total())
		for _, ev := range ring.Events() {
			fmt.Println(" ", ev)
		}
	}
	if incidents != nil {
		f, err := os.Create(extras.IncidentsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
			return 1
		}
		werr := incidents.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "flexsim: wrote %d incident(s) to %s\n", incidents.Len(), extras.IncidentsOut)
	}
	if p.Status != runner.Cached {
		// A cached result ran nothing, so it wrote no artifact.
		if common.SpansOut != "" {
			fmt.Fprintf(os.Stderr, "flexsim: wrote Perfetto trace to %s (load in ui.perfetto.dev)\n", common.SpansOut)
		}
		if common.HeatmapOut != "" {
			fmt.Fprintf(os.Stderr, "flexsim: wrote VC heatmap to %s\n", common.HeatmapOut)
		}
	}
	if jsonTrace != nil {
		if err := jsonTrace.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "flexsim:", err)
			return 1
		}
	}
	return 0
}
