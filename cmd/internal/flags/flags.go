// Package flags binds the command-line flags that more than one CLI reads,
// one call per flag, in three groups: BindCommon (run control, the result
// cache, observability and profiling, shared by flexsim and charsweep),
// BindSpec (one run's physics, onto a sim.Config: flexsim) and BindPlan (a
// study's plan inputs: charsweep -experiment and sweepctl mkspec). The four
// -fault-* flags are registered by one helper for BindSpec and BindPlan. A
// flag that one command reads is declared in that command's main.go. ReadSpec
// and Owned serve the commands that take a spec file.
package flags

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/experiments"
	"flexsim/internal/fault"
	"flexsim/internal/obs"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
)

// Values holds the flags shared by both CLIs: run control (timeout), the
// content-addressed result cache (-cache-dir/-resume), interval metrics,
// the observability artifacts (Perfetto spans, VC heatmap, formation
// forensics), the HTTP introspection endpoint, and profiling.
type Values struct {
	Timeout        time.Duration
	CacheDir       string
	Resume         bool
	MetricsOut     string
	MetricsEvery   int
	SpansOut       string
	HeatmapOut     string
	ForensicsDepth int
	HTTPAddr       string
	CPUProfile     string
	MemProfile     string
}

// BindCommon registers the shared execution, caching, observability and
// profiling flags on fs and returns the bound values.
func BindCommon(fs *flag.FlagSet) *Values {
	v := &Values{}
	fs.DurationVar(&v.Timeout, "timeout", 0, "cancel the run or sweep after this duration, keeping partial results (0 = no limit)")
	fs.StringVar(&v.CacheDir, "cache-dir", "", "persist completed runs under this directory and skip configurations already finished there")
	fs.BoolVar(&v.Resume, "resume", true, "serve cached results from -cache-dir (set -resume=false to recompute everything while still persisting)")
	fs.StringVar(&v.MetricsOut, "metrics-out", "", "write interval metrics for every run to this file (.jsonl/.json = JSONL, else CSV)")
	fs.IntVar(&v.MetricsEvery, "metrics-every", obs.DefaultEvery, "interval metrics sampling period in cycles")
	fs.StringVar(&v.SpansOut, "spans-out", "", "write each run as a Chrome trace-event (Perfetto) JSON file of per-message spans and detector passes (charsweep writes one file per run)")
	fs.StringVar(&v.HeatmapOut, "heatmap-out", "", "write a per-VC occupancy/block heatmap CSV after each run (charsweep writes one file per run)")
	fs.IntVar(&v.ForensicsDepth, "forensics-depth", 0, "resource-event ring size for deadlock formation replay (0 = off; incidents gain formation metrics)")
	fs.StringVar(&v.HTTPAddr, "http", "", "serve /metrics, /healthz and /progress on this address while running")
	fs.StringVar(&v.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&v.MemProfile, "memprofile", "", "write an allocation profile to this file on exit")
	return v
}

// Spec is what BindSpec binds besides sim.Config fields: the flags that
// invert a field (-uni, -no-recover) or name a file (-fault-schedule).
type Spec struct {
	cfg           *sim.Config
	uni           bool
	noRecover     bool
	faultSchedule string
}

// BindSpec registers one run's configuration on fs — topology, router
// resources, routing/traffic, workload, run control, detection/recovery,
// validation and faults — each flag defaulting to cfg's current value.
// Call Apply after parsing.
func BindSpec(fs *flag.FlagSet, c *sim.Config) *Spec {
	s := &Spec{cfg: c}
	fs.IntVar(&c.K, "k", c.K, "radix (nodes per dimension)")
	fs.IntVar(&c.N, "n", c.N, "dimensions")
	fs.BoolVar(&s.uni, "uni", !c.Bidirectional, "unidirectional channels (default bidirectional)")
	fs.BoolVar(&c.Mesh, "mesh", c.Mesh, "mesh (no wraparound links) instead of torus")
	fs.IntVar(&c.IrregularNodes, "irregular", c.IrregularNodes, "random irregular switch network with this many nodes (0 = torus/mesh)")
	fs.IntVar(&c.IrregularLinks, "irregular-links", c.IrregularLinks, "extra links beyond the irregular network's spanning tree")
	fs.IntVar(&c.VCs, "vcs", c.VCs, "virtual channels per physical channel")
	fs.IntVar(&c.BufferDepth, "buf", c.BufferDepth, "edge buffer depth in flits")
	fs.IntVar(&c.MsgLen, "msglen", c.MsgLen, "message length in flits")
	fs.IntVar(&c.MsgLenShort, "msglen-short", c.MsgLenShort, "short message length for hybrid (bimodal) lengths")
	fs.Float64Var(&c.ShortFrac, "shortfrac", c.ShortFrac, "fraction of messages using -msglen-short (0 = fixed length)")
	fs.StringVar(&c.Routing, "routing", c.Routing, "routing algorithm (dor|tfar|dateline-dor|duato-far|misroute-far|updown|min-adaptive)")
	fs.StringVar(&c.Traffic, "traffic", c.Traffic, "traffic pattern (uniform|bitrev|transpose|shuffle|hotspot|tornado|neighbor)")
	fs.Float64Var(&c.HotspotFrac, "hotfrac", c.HotspotFrac, "hot-spot traffic fraction")
	fs.Float64Var(&c.Load, "load", c.Load, "normalized offered load (1.0 = capacity)")
	fs.StringVar(&c.Workload, "workload", c.Workload, "program-driven workload instead of open-loop traffic (stencil|allreduce)")
	fs.IntVar(&c.WorkloadPhases, "phases", c.WorkloadPhases, "workload phases/rounds (default 10)")
	fs.IntVar(&c.ComputeDelay, "compute", c.ComputeDelay, "compute cycles between workload phases")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "random seed")
	fs.IntVar(&c.WarmupCycles, "warmup", c.WarmupCycles, "warmup cycles")
	fs.IntVar(&c.MeasureCycles, "cycles", c.MeasureCycles, "measured cycles")
	fs.IntVar(&c.DetectEvery, "detect-every", c.DetectEvery, "deadlock detector period in cycles")
	fs.StringVar(&c.VictimPolicy, "victim", c.VictimPolicy, "recovery victim policy (oldest|most|fewest|random)")
	fs.BoolVar(&c.CycleCensus, "census", c.CycleCensus, "count resource dependency cycles each detector invocation")
	fs.BoolVar(&s.noRecover, "no-recover", !c.Recover, "detect but do not break deadlocks")
	fs.BoolVar(&c.CheckInvariants, "check", c.CheckInvariants, "enable per-cycle invariant checking (slow)")
	bindFaults(fs, &c.FaultLinkMTTF, &c.FaultRepair, &c.FaultSeed, &s.faultSchedule)
	return s
}

// Apply folds -uni, -no-recover and the -fault-schedule file into the
// configuration BindSpec bound.
func (s *Spec) Apply() error {
	s.cfg.Bidirectional = !s.uni
	s.cfg.Recover = !s.noRecover
	events, err := readFaultSchedule(s.faultSchedule)
	s.cfg.FaultEvents = append(s.cfg.FaultEvents, events...)
	return err
}

// Plan holds a study's plan inputs: what charsweep -experiment and
// sweepctl mkspec fold into the configurations a study plans.
type Plan struct {
	Quick         bool
	Seed          uint64
	Loads         string
	FaultSeed     uint64
	FaultLinkMTTF int
	FaultRepair   int
	FaultSchedule string
}

// BindPlan registers the plan inputs on fs.
func BindPlan(fs *flag.FlagSet) *Plan {
	p := &Plan{}
	fs.BoolVar(&p.Quick, "quick", false, "scaled-down runs (8-ary 2-cube, short windows)")
	fs.Uint64Var(&p.Seed, "seed", 0, "seed offset (0 = default)")
	fs.StringVar(&p.Loads, "loads", "", "comma-separated load override, e.g. 0.2,0.6,1.0")
	bindFaults(fs, &p.FaultLinkMTTF, &p.FaultRepair, &p.FaultSeed, &p.FaultSchedule)
	return p
}

// bindFaults registers the fault-injection flags, whose defaults are all
// zero (no faults), for BindSpec and BindPlan.
func bindFaults(fs *flag.FlagSet, mttf, repair *int, seed *uint64, schedule *string) {
	fs.IntVar(mttf, "fault-link-mttf", 0, "generate link failures with this mean time-to-failure in cycles (0 = no generated faults)")
	fs.IntVar(repair, "fault-repair", 0, "repair failed links after this many cycles (0 = failures are permanent)")
	fs.Uint64Var(seed, "fault-seed", 0, "seed for the generated fault schedule (0 = derive from -seed)")
	fs.StringVar(schedule, "fault-schedule", "", "inject the fault events in this JSONL schedule file (composable with -fault-link-mttf)")
}

// Options converts the parsed plan flags into experiment options (loads
// parsing and the schedule file can fail; Instrumentation is wired by the
// caller).
func (p *Plan) Options() (experiments.Options, error) {
	o := experiments.Options{
		Quick: p.Quick, Seed: p.Seed,
		FaultSeed: p.FaultSeed, FaultLinkMTTF: p.FaultLinkMTTF, FaultRepair: p.FaultRepair,
	}
	var err error
	if o.Loads, err = specv1.ParseLoads(p.Loads); err != nil {
		return o, err
	}
	o.FaultEvents, err = readFaultSchedule(p.FaultSchedule)
	return o, err
}

// ReadSpec decodes the specv1 spec file at path (- = stdin).
func ReadSpec(path string) (*specv1.Spec, error) {
	if path == "-" {
		return specv1.DecodeSpec(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return specv1.DecodeSpec(f)
}

// readFaultSchedule reads a JSONL fault schedule file; an empty path
// returns no events.
func readFaultSchedule(path string) ([]fault.Event, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := fault.ReadSchedule(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// Owned names the first flag set on fs to a value other than its default
// that bind registers: a flag the selected mode does not read (a spec or
// repro file fixes what the physics and plan flags set), which the command
// refuses instead of silently dropping. It returns "" when none is set.
func Owned(fs *flag.FlagSet, bind func(*flag.FlagSet)) string {
	owned := flag.NewFlagSet("owned", flag.ContinueOnError)
	bind(owned)
	var name string
	fs.Visit(func(f *flag.Flag) {
		if name == "" && owned.Lookup(f.Name) != nil && f.Value.String() != f.DefValue {
			name = f.Name
		}
	})
	return name
}

// Names binds one flag of each name, so Owned can ask about flags a command
// declares itself.
func Names(names ...string) func(*flag.FlagSet) {
	return func(fs *flag.FlagSet) {
		for _, n := range names {
			fs.String(n, "", "")
		}
	}
}

// SignalContext returns a context cancelled by SIGINT/SIGTERM and, when
// timeout > 0, after the timeout — the CLI entry point of the cancellation
// path that sim.RunContext polls on the detector cadence.
func SignalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}

// OpenCache opens the content-addressed result cache selected by
// -cache-dir/-resume; it returns nil when caching is disabled. With
// -resume=false the persisted index is ignored (every run recomputes and
// is re-persisted).
func (v *Values) OpenCache() (*runner.Cache, error) {
	if v.CacheDir == "" {
		return nil, nil
	}
	c, err := runner.Open(v.CacheDir)
	if err != nil {
		return nil, err
	}
	if !v.Resume {
		c.Forget()
	}
	return c, nil
}

// Instrumentation builds what the observability flags select — the one
// place either CLI turns -metrics-out/-metrics-every, -spans-out,
// -heatmap-out and -forensics-depth into a sim.Instrumentation, creating the
// metrics file. perRun is set by a caller that runs more than one simulation
// with the value: the artifact paths then get a "*" (which sim expands to a
// per-run stem) so concurrent runs do not clobber each other; the metrics
// sink is concurrency-safe and shared. The returned function ends the
// instrumented work: it flushes and closes the metrics file.
func (v *Values) Instrumentation(perRun bool) (sim.Instrumentation, func() error, error) {
	in := sim.Instrumentation{
		ForensicsDepth: v.ForensicsDepth,
		SpansPath:      v.SpansOut,
		HeatmapPath:    v.HeatmapOut,
	}
	if perRun {
		in.SpansPath, in.HeatmapPath = perRunPath(in.SpansPath), perRunPath(in.HeatmapPath)
	}
	if v.MetricsOut == "" {
		return in, func() error { return nil }, nil
	}
	f, err := os.Create(v.MetricsOut)
	if err != nil {
		return in, nil, err
	}
	sink, flush := obs.SinkFor(v.MetricsOut, f)
	in.MetricsSink, in.MetricsEvery = sink, v.MetricsEvery
	return in, func() error {
		werr := flush()
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}, nil
}

// perRunPath makes an artifact path safe for a multi-run sweep: if the
// path has no "*" placeholder (which sim expands to a per-run stem), one
// is inserted before the extension. Empty paths pass through.
func perRunPath(path string) string {
	if path == "" || strings.Contains(path, "*") {
		return path
	}
	if dot := strings.LastIndex(path, "."); dot > strings.LastIndex(path, "/") {
		return path[:dot] + "-*" + path[dot:]
	}
	return path + "-*"
}
