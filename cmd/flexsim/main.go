// Command flexsim runs one flit-level network simulation with true deadlock
// detection and prints the measured characterization.
//
//	flexsim -k 16 -n 2 -routing dor -vcs 1 -load 0.6
//	flexsim -spec fig5.json -point 3 -cache-dir S -incidents-out inc.jsonl
//	flexsim -k 8 -routing dor -uni -load 0.9 -dot deadlock.dot
//	flexsim -repro repros/ring-uni-k3-vc1-dor-m3-l2-b1-exemplar.json -dot knot.dot
//
// The point is the physics flags or point I of a spec (-spec, -point). With
// -cache-dir a point the store holds is replayed as an audit of the store.
// -dot writes the first knot's wait-for graph; -repro judges a flexcheck
// repro instead of simulating. SIGINT/SIGTERM or -timeout stops the run
// within one detector period and prints the partial characterization.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/cwg"
	"flexsim/internal/modelcheck"
	"flexsim/internal/obs"
	"flexsim/internal/prof"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/trace"
)

func main() {
	os.Exit(run())
}

// usage is an error in the flags given, exit status 2.
type usage string

func (u usage) Error() string { return string(u) }

// run is flexsim: it prints the error, if any, and returns the exit status.
func run() int {
	err := execute()
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "flexsim:", err)
	if errors.As(err, new(usage)) {
		return 2
	}
	return 1
}

// outputs holds the flags only flexsim reads: which point it runs, and what
// it writes besides the characterization.
type outputs struct {
	traceLast    int
	traceJSON    string
	incidentsOut string
	incidentsDOT bool
	spec         string
	point        int
	dot          string
	atCycle      int64
	repro        string
}

// bindOutputs registers flexsim's own flags on fs.
func bindOutputs(fs *flag.FlagSet) *outputs {
	o := &outputs{}
	fs.IntVar(&o.traceLast, "trace-last", 0, "print the last N message lifecycle events after the run")
	fs.StringVar(&o.traceJSON, "trace-json", "", "stream message lifecycle events to this file as JSONL")
	fs.StringVar(&o.incidentsOut, "incidents-out", "", "write per-deadlock incident post-mortems to this file as JSONL")
	fs.BoolVar(&o.incidentsDOT, "incidents-dot", false, "include a Graphviz knot-subgraph snapshot in each incident")
	fs.StringVar(&o.spec, "spec", "", "run point -point of this specv1 spec file (- = stdin) instead of the physics flags")
	fs.IntVar(&o.point, "point", -1, "index of the -spec point to run, in the spec's expansion order")
	fs.StringVar(&o.dot, "dot", "", "stop at the first detector pass that finds a knot and write its wait-for graph to this file as Graphviz DOT")
	fs.Int64Var(&o.atCycle, "at-cycle", -1, "with -dot, write the graph replayed at this cycle instead (needs -forensics-depth)")
	fs.StringVar(&o.repro, "repro", "", "judge this flexcheck repro file's restored state instead of simulating")
	return o
}

// conflict returns why the flags set on fs cannot be honoured together. A
// spec or repro file owns the physics; -dot and -repro never finish a point,
// so there is nothing to persist or audit.
func (o *outputs) conflict(fs *flag.FlagSet, common *flags.Values) error {
	name := flags.Owned(fs, func(fs *flag.FlagSet) { cfg := sim.Default(); flags.BindSpec(fs, &cfg) })
	switch {
	case name != "" && (o.spec != "" || o.repro != ""):
		return usage("-" + name + " cannot be combined with -spec or -repro: the file owns what is simulated")
	case o.spec != "" && o.repro != "":
		return usage("-spec cannot be combined with -repro")
	case (o.spec != "") != (o.point >= 0):
		return usage("-spec FILE and -point I go together")
	case o.atCycle >= 0 && (o.dot == "" || o.repro != "" || common.ForensicsDepth <= 0):
		return usage("-at-cycle needs -dot and -forensics-depth > 0, and no -repro")
	case common.CacheDir != "" && (o.dot != "" || o.repro != ""):
		return usage("-cache-dir cannot be combined with -dot or -repro: neither runs a point to its end")
	}
	return nil
}

// execute parses the flags, runs what they select and writes its outputs.
func execute() (err error) {
	cfg := sim.Default()
	spec := flags.BindSpec(flag.CommandLine, &cfg)
	common := flags.BindCommon(flag.CommandLine)
	out := bindOutputs(flag.CommandLine)
	flag.Parse()
	if err := out.conflict(flag.CommandLine, common); err != nil {
		return err
	}
	if out.repro != "" {
		return renderRepro(out.repro, out.dot)
	}
	if out.spec != "" {
		cfg, err = specPoint(out.spec, out.point)
	} else {
		err = spec.Apply()
	}
	if err != nil {
		return err
	}

	ctx, cancel := flags.SignalContext(common.Timeout)
	defer cancel()
	inst, finish, err := common.Instrumentation(false)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, finish()) }()
	cfg.Instrumentation = inst

	var tracers trace.Multi
	var ring *trace.Ring
	if out.traceLast > 0 {
		ring = &trace.Ring{Cap: out.traceLast}
		tracers = append(tracers, ring)
	}
	var incidents *obs.IncidentLog
	if out.incidentsOut != "" {
		if ring == nil {
			// Give post-mortems event context even without -trace-last.
			ring = &trace.Ring{Cap: 256}
			tracers = append(tracers, ring)
		}
		incidents = &obs.IncidentLog{LastEvents: ring}
		cfg.Incidents = incidents
		cfg.IncidentDOT = out.incidentsDOT
	}
	var jsonTrace *trace.JSONWriter
	if out.traceJSON != "" {
		f, ferr := os.Create(out.traceJSON)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		jsonTrace = &trace.JSONWriter{W: f}
		tracers = append(tracers, jsonTrace)
		defer func() { err = errors.Join(err, jsonTrace.Err()) }()
	}
	if len(tracers) == 1 {
		cfg.Tracer = tracers[0]
	} else if len(tracers) > 1 {
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
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "flexsim: serving /metrics on http://%s\n", srv.Addr())
	}

	stopProf, err := prof.Start(common.CPUProfile, common.MemProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	if out.dot != "" {
		err = firstKnot(cfg, out.dot, out.atCycle)
	} else {
		err = simulate(ctx, cfg, common)
	}
	if ring != nil && out.traceLast > 0 {
		fmt.Printf("last %d of %d lifecycle events:\n", len(ring.Events()), ring.Total())
		for _, ev := range ring.Events() {
			fmt.Println(" ", ev)
		}
	}
	if incidents != nil {
		var b bytes.Buffer
		werr := errors.Join(incidents.WriteJSONL(&b), os.WriteFile(out.incidentsOut, b.Bytes(), 0o644))
		if err = errors.Join(err, werr); werr == nil {
			fmt.Fprintf(os.Stderr, "flexsim: wrote %d incident(s) to %s\n", incidents.Len(), out.incidentsOut)
		}
	}
	return err
}

// specPoint returns point i of the spec file at path, in the order
// Spec.Configs returns, and prints its key.
func specPoint(path string, i int) (sim.Config, error) {
	spec, err := flags.ReadSpec(path)
	if err != nil {
		return sim.Config{}, err
	}
	configs, err := spec.Configs()
	if err != nil {
		return sim.Config{}, err
	}
	if i >= len(configs) {
		return sim.Config{}, usage(fmt.Sprintf("-point %d: %s has %d point(s)", i, path, len(configs)))
	}
	fmt.Printf("spec point:         %d of %d in %s, key %s\n", i, len(configs), path, runner.Key(configs[i]))
	return configs[i], nil
}

// simulate runs cfg to its end through the scheduler the sweeps use and
// prints the characterization. A point the store lacks is persisted; a point
// it holds is run without the store and audited: the replay's result must
// equal the stored one, wall-clock histograms aside.
func simulate(ctx context.Context, cfg sim.Config, common *flags.Values) (err error) {
	cache, err := common.OpenCache()
	if err != nil {
		return err
	}
	var stored *stats.Result
	opts := runner.Options{Cache: cache}
	if cache != nil {
		if stored, _ = cache.Get(cfg); stored != nil {
			opts.Cache = nil // nothing is appended for a key the store holds
		}
		defer func() {
			if cerr := cache.Close(); err == nil {
				err = cerr
			}
		}()
	}
	p := runner.Map(ctx, []sim.Config{cfg}, opts)[0]
	res := p.Result
	if res == nil {
		return p.Err
	}
	if res.Interrupted {
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
	if stored == nil || p.Status != runner.Done {
		return nil
	}
	a, b := res.Simulated(), stored.Simulated()
	replayed, err1 := stats.EncodeResult(&a)
	held, err2 := stats.EncodeResult(&b)
	key := runner.Key(cfg)
	if err1 != nil || err2 != nil || !bytes.Equal(replayed, held) {
		return fmt.Errorf("audit: the store %s holds another result under key %s", cache.Dir(), key)
	}
	fmt.Fprintf(os.Stderr, "flexsim: audit: the replay matches the result stored under key %s\n", key)
	return nil
}

// firstKnot steps cfg to the first detector pass that finds a knot and
// stops there. It writes that pass's full wait-for graph to path in DOT
// (with atCycle >= 0, the graph replayed at that cycle instead) and prints
// the knots, with their formation when forensics is on, to stderr.
// Recovery is off, so the graph is the one the pass saw before a victim
// was absorbed; every cycle before it is the same with recovery on.
func firstKnot(cfg sim.Config, path string, atCycle int64) (err error) {
	cfg.Recover = false
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, r.CloseArtifacts()) }()
	defer r.Finish() // before CloseArtifacts, as in a run: flushes metrics, stops the engine
	limit := int64(cfg.WarmupCycles + cfg.MeasureCycles)
	for r.Detector.Stats.Deadlocks == 0 {
		if r.Net.Now() >= limit {
			return fmt.Errorf("no deadlock within %d cycles (try a higher load, -uni, or -routing dor)", limit)
		}
		r.StepCycle()
	}
	now := r.Net.Now()
	g := cwg.Build(r.Detector.Snapshot())
	an := g.Analyze(cwg.Options{CountKnotCycles: true})
	fmt.Fprintf(os.Stderr, "deadlock detected at cycle %d (%d knot(s), %d blocked messages, %d vertices, %d arcs)\n",
		now, len(an.Deadlocks), an.BlockedMessages, g.NumVertices(), g.NumEdges())
	describe(an.Deadlocks, r.Forensics, now)
	if atCycle >= 0 {
		var ok bool
		if g, ok = r.Forensics.CWGAt(atCycle); !ok {
			return fmt.Errorf("cycle %d is outside the replayable window [%d, %d]",
				atCycle, r.Forensics.MinReplayCycle(), now)
		}
		fmt.Fprintf(os.Stderr, "replayed CWG at cycle %d: %d vertices, %d arcs\n",
			atCycle, g.NumVertices(), g.NumEdges())
	}
	return os.WriteFile(path, []byte(g.DOT(r.Net.VCString)), 0o644)
}

// describe prints each knot as the paper characterizes it to stderr, and
// with forensics its formation up to detection at cycle now.
func describe(deadlocks []cwg.Deadlock, forensics *obs.FormationAnalyzer, now int64) {
	for i := range deadlocks {
		d := &deadlocks[i]
		fmt.Fprintf(os.Stderr, "  deadlock %d: %s, deadlock set %v (%d msgs), resource set %d VCs, knot %d VCs, %d cycles, %d dependent\n",
			i, d.Kind, d.DeadlockSet, len(d.DeadlockSet), len(d.ResourceSet), len(d.KnotVCs), d.KnotCycles, len(d.Dependent))
		if forensics == nil {
			continue
		}
		if f := forensics.Analyze(now, d); f != nil {
			trunc := ""
			if f.Truncated {
				trunc = " (ring truncated; closure is an upper bound)"
			}
			fmt.Fprintf(os.Stderr, "    formation: first member blocked at %d, knot closed at %d (%d cycles forming, closed by msg %d), detected %d cycles later%s\n",
				f.FirstBlocked, f.KnotClosed, f.FormationCycles, f.ClosedBy, f.DetectionLag, trunc)
		}
	}
}

// renderRepro loads a flexcheck repro file, replays it through the real
// pipeline (restore, detect, knot analysis) and prints the characterization
// to stderr; with dot set it writes the full wait-for graph there.
func renderRepro(path, dot string) error {
	rep, err := modelcheck.LoadRepro(path)
	if err != nil {
		return err
	}
	rp, err := rep.Replay()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repro %s (%s): %s\n", path, rep.Kind, rep.Detail)
	fmt.Fprintf(os.Stderr, "  config %s, %d messages restored, ground truth stuck=%#x live=%#x\n",
		rep.Config.Name(), len(rep.Messages), rep.Stuck, rep.Live)
	fmt.Fprintf(os.Stderr, "  detector: %d knot(s), %d blocked messages\n",
		len(rp.Analysis.Deadlocks), rp.Analysis.BlockedMessages)
	describe(rp.Analysis.Deadlocks, nil, 0)
	if dot == "" {
		return nil
	}
	return os.WriteFile(dot, []byte(rp.Graph.DOT(rp.Net.VCString)), 0o644)
}
