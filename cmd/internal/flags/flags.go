// Package flags is the single flag-definition table shared by the flexsim
// and charsweep CLIs. Each flag is declared exactly once — name, usage and
// the binding into sim.Config / experiments.Options — so the two commands
// cannot drift: both gain the resilient-execution flags (-timeout,
// -cache-dir, -resume) and the observability flags from the same table,
// and flexsim's configuration surface is one table instead of dozens of
// hand-rolled flag.* calls.
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

// Def is one row of a flag table: the flag's name, its help text, and the
// binder that registers it against a FlagSet.
type Def[T any] struct {
	Name  string
	Usage string
	Bind  func(fs *flag.FlagSet, v T, usage string)
}

// Common is the shared execution/caching/observability/profiling table.
var Common = []Def[*Values]{
	{"timeout", "cancel the run or sweep after this duration, keeping partial results (0 = no limit)",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.DurationVar(&v.Timeout, "timeout", 0, usage) }},
	{"cache-dir", "persist completed runs under this directory and skip configurations already finished there",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.CacheDir, "cache-dir", "", usage) }},
	{"resume", "serve cached results from -cache-dir (set -resume=false to recompute everything while still persisting)",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.BoolVar(&v.Resume, "resume", true, usage) }},
	{"metrics-out", "write interval metrics for every run to this file (.jsonl/.json = JSONL, else CSV)",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.MetricsOut, "metrics-out", "", usage) }},
	{"metrics-every", "interval metrics sampling period in cycles",
		func(fs *flag.FlagSet, v *Values, usage string) {
			fs.IntVar(&v.MetricsEvery, "metrics-every", obs.DefaultEvery, usage)
		}},
	{"spans-out", "write each run as a Chrome trace-event (Perfetto) JSON file of per-message spans and detector passes (charsweep writes one file per run)",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.SpansOut, "spans-out", "", usage) }},
	{"heatmap-out", "write a per-VC occupancy/block heatmap CSV after each run (charsweep writes one file per run)",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.HeatmapOut, "heatmap-out", "", usage) }},
	{"forensics-depth", "resource-event ring size for deadlock formation replay (0 = off; incidents gain formation metrics)",
		func(fs *flag.FlagSet, v *Values, usage string) {
			fs.IntVar(&v.ForensicsDepth, "forensics-depth", 0, usage)
		}},
	{"http", "serve /metrics, /healthz and /progress on this address while running",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.HTTPAddr, "http", "", usage) }},
	{"cpuprofile", "write a CPU profile to this file",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.CPUProfile, "cpuprofile", "", usage) }},
	{"memprofile", "write an allocation profile to this file on exit",
		func(fs *flag.FlagSet, v *Values, usage string) { fs.StringVar(&v.MemProfile, "memprofile", "", usage) }},
}

// BindCommon registers the shared table on fs and returns the bound values.
func BindCommon(fs *flag.FlagSet) *Values {
	v := &Values{}
	for _, d := range Common {
		d.Bind(fs, v, d.Usage)
	}
	return v
}

// Extras holds flexsim flags that invert or sit alongside sim.Config
// fields; Apply folds them in after parsing.
type Extras struct {
	Uni           bool
	Census        bool
	NoRecover     bool
	Check         bool
	TraceLast     int
	TraceJSON     string
	IncidentsOut  string
	IncidentsDOT  bool
	FaultSchedule string
}

// configTarget is what the configuration table binds to.
type configTarget struct {
	C *sim.Config
	X *Extras
}

// ConfigDefs maps the full single-run configuration surface onto
// sim.Config: topology, router resources, routing/traffic, workload, run
// control, detection/recovery, validation and tracing.
var ConfigDefs = []Def[configTarget]{
	{"k", "radix (nodes per dimension)",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.IntVar(&t.C.K, "k", t.C.K, usage) }},
	{"n", "dimensions",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.IntVar(&t.C.N, "n", t.C.N, usage) }},
	{"uni", "unidirectional channels (default bidirectional)",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.BoolVar(&t.X.Uni, "uni", false, usage) }},
	{"mesh", "mesh (no wraparound links) instead of torus",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.BoolVar(&t.C.Mesh, "mesh", false, usage) }},
	{"irregular", "random irregular switch network with this many nodes (0 = torus/mesh)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.IrregularNodes, "irregular", 0, usage)
		}},
	{"irregular-links", "extra links beyond the irregular network's spanning tree",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.IrregularLinks, "irregular-links", 0, usage)
		}},
	{"vcs", "virtual channels per physical channel",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.IntVar(&t.C.VCs, "vcs", t.C.VCs, usage) }},
	{"buf", "edge buffer depth in flits",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.BufferDepth, "buf", t.C.BufferDepth, usage)
		}},
	{"msglen", "message length in flits",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.MsgLen, "msglen", t.C.MsgLen, usage)
		}},
	{"msglen-short", "short message length for hybrid (bimodal) lengths",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.MsgLenShort, "msglen-short", t.C.MsgLenShort, usage)
		}},
	{"shortfrac", "fraction of messages using -msglen-short (0 = fixed length)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.Float64Var(&t.C.ShortFrac, "shortfrac", t.C.ShortFrac, usage)
		}},
	{"routing", "routing algorithm (dor|tfar|dateline-dor|duato-far|misroute-far|updown|min-adaptive)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.C.Routing, "routing", t.C.Routing, usage)
		}},
	{"traffic", "traffic pattern (uniform|bitrev|transpose|shuffle|hotspot|tornado|neighbor)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.C.Traffic, "traffic", t.C.Traffic, usage)
		}},
	{"hotfrac", "hot-spot traffic fraction",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.Float64Var(&t.C.HotspotFrac, "hotfrac", t.C.HotspotFrac, usage)
		}},
	{"load", "normalized offered load (1.0 = capacity)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.Float64Var(&t.C.Load, "load", t.C.Load, usage)
		}},
	{"workload", "program-driven workload instead of open-loop traffic (stencil|allreduce)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.C.Workload, "workload", "", usage)
		}},
	{"phases", "workload phases/rounds (default 10)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.WorkloadPhases, "phases", 0, usage)
		}},
	{"compute", "compute cycles between workload phases",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.ComputeDelay, "compute", 0, usage)
		}},
	{"seed", "random seed",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.Uint64Var(&t.C.Seed, "seed", t.C.Seed, usage) }},
	{"warmup", "warmup cycles",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.WarmupCycles, "warmup", t.C.WarmupCycles, usage)
		}},
	{"cycles", "measured cycles",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.MeasureCycles, "cycles", t.C.MeasureCycles, usage)
		}},
	{"detect-every", "deadlock detector period in cycles",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.DetectEvery, "detect-every", t.C.DetectEvery, usage)
		}},
	{"victim", "recovery victim policy (oldest|most|fewest|random)",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.C.VictimPolicy, "victim", t.C.VictimPolicy, usage)
		}},
	{"census", "count resource dependency cycles each detector invocation",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.BoolVar(&t.X.Census, "census", false, usage) }},
	{"no-recover", "detect but do not break deadlocks",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.BoolVar(&t.X.NoRecover, "no-recover", false, usage)
		}},
	{"check", "enable per-cycle invariant checking (slow)",
		func(fs *flag.FlagSet, t configTarget, usage string) { fs.BoolVar(&t.X.Check, "check", false, usage) }},
	{"trace-last", "print the last N message lifecycle events after the run",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.X.TraceLast, "trace-last", 0, usage)
		}},
	{"trace-json", "stream message lifecycle events to this file as JSONL",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.X.TraceJSON, "trace-json", "", usage)
		}},
	{"incidents-out", "write per-deadlock incident post-mortems to this file as JSONL",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.X.IncidentsOut, "incidents-out", "", usage)
		}},
	{"incidents-dot", "include a Graphviz knot-subgraph snapshot in each incident",
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.BoolVar(&t.X.IncidentsDOT, "incidents-dot", false, usage)
		}},
	{"fault-link-mttf", faultMTTFUsage,
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.FaultLinkMTTF, "fault-link-mttf", 0, usage)
		}},
	{"fault-repair", faultRepairUsage,
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.IntVar(&t.C.FaultRepair, "fault-repair", 0, usage)
		}},
	{"fault-seed", faultSeedUsage,
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.Uint64Var(&t.C.FaultSeed, "fault-seed", 0, usage)
		}},
	{"fault-schedule", faultScheduleUsage,
		func(fs *flag.FlagSet, t configTarget, usage string) {
			fs.StringVar(&t.X.FaultSchedule, "fault-schedule", "", usage)
		}},
}

// Fault-injection flag help, shared verbatim by both CLIs.
const (
	faultMTTFUsage     = "generate link failures with this mean time-to-failure in cycles (0 = no generated faults)"
	faultRepairUsage   = "repair failed links after this many cycles (0 = failures are permanent)"
	faultSeedUsage     = "seed for the generated fault schedule (0 = derive from -seed)"
	faultScheduleUsage = "inject the fault events in this JSONL schedule file (composable with -fault-link-mttf)"
)

// LoadFaultSchedule parses the -fault-schedule file (when set) into the
// configuration's explicit event list.
func (x *Extras) LoadFaultSchedule(c *sim.Config) error {
	events, err := ReadFaultSchedule(x.FaultSchedule)
	if err != nil {
		return err
	}
	c.FaultEvents = append(c.FaultEvents, events...)
	return nil
}

// ReadFaultSchedule reads a JSONL fault schedule file; an empty path
// returns no events.
func ReadFaultSchedule(path string) ([]fault.Event, error) {
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

// BindConfig registers the configuration table on fs against cfg.
func BindConfig(fs *flag.FlagSet, cfg *sim.Config) *Extras {
	x := &Extras{}
	t := configTarget{C: cfg, X: x}
	for _, d := range ConfigDefs {
		d.Bind(fs, t, d.Usage)
	}
	return x
}

// Apply folds the inverted/adjacent flags into the configuration.
func (x *Extras) Apply(c *sim.Config) {
	c.Bidirectional = !x.Uni
	c.CycleCensus = x.Census
	c.Recover = !x.NoRecover
	c.CheckInvariants = x.Check
}

// Sweep holds the charsweep-only flags.
type Sweep struct {
	Experiment    string
	Spec          string
	ResultsOut    string
	Quick         bool
	CSV           bool
	Plot          bool
	Parallel      int
	Seed          uint64
	Loads         string
	FaultSeed     uint64
	FaultLinkMTTF int
	FaultRepair   int
	FaultSchedule string
}

// SweepDefs is the experiment-harness table.
var SweepDefs = []Def[*Sweep]{
	{"experiment", "experiment id (" + strings.Join(experiments.Names(), "|") + "|all)",
		func(fs *flag.FlagSet, s *Sweep, usage string) {
			fs.StringVar(&s.Experiment, "experiment", "all", usage)
		}},
	{"spec", "run this specv1 sweep spec file (- = stdin) instead of -experiment, emitting specv1 PointResult JSONL (the same wire format the sweep service serves)",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.StringVar(&s.Spec, "spec", "", usage) }},
	{"results-out", "write the -spec run's PointResult JSONL to this file (default stdout)",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.StringVar(&s.ResultsOut, "results-out", "", usage) }},
	{"quick", "scaled-down runs (8-ary 2-cube, short windows)",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.BoolVar(&s.Quick, "quick", false, usage) }},
	{"csv", "emit CSV instead of aligned text",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.BoolVar(&s.CSV, "csv", false, usage) }},
	{"plot", "render ASCII plots (first numeric column as x, log-y) after each table",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.BoolVar(&s.Plot, "plot", false, usage) }},
	{"parallel", "max concurrent simulations (0 = GOMAXPROCS)",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.IntVar(&s.Parallel, "parallel", 0, usage) }},
	{"seed", "seed offset (0 = default)",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.Uint64Var(&s.Seed, "seed", 0, usage) }},
	{"loads", "comma-separated load override, e.g. 0.2,0.6,1.0",
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.StringVar(&s.Loads, "loads", "", usage) }},
	{"fault-link-mttf", faultMTTFUsage,
		func(fs *flag.FlagSet, s *Sweep, usage string) {
			fs.IntVar(&s.FaultLinkMTTF, "fault-link-mttf", 0, usage)
		}},
	{"fault-repair", faultRepairUsage,
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.IntVar(&s.FaultRepair, "fault-repair", 0, usage) }},
	{"fault-seed", faultSeedUsage,
		func(fs *flag.FlagSet, s *Sweep, usage string) { fs.Uint64Var(&s.FaultSeed, "fault-seed", 0, usage) }},
	{"fault-schedule", faultScheduleUsage,
		func(fs *flag.FlagSet, s *Sweep, usage string) {
			fs.StringVar(&s.FaultSchedule, "fault-schedule", "", usage)
		}},
}

// BindSweep registers the experiment-harness table on fs.
func BindSweep(fs *flag.FlagSet) *Sweep {
	s := &Sweep{}
	for _, d := range SweepDefs {
		d.Bind(fs, s, d.Usage)
	}
	return s
}

// Options converts the parsed sweep flags into experiment options (loads
// parsing can fail; the execution-side fields — Context, Cache, OnPoint,
// Instrumentation — are wired by the caller).
func (s *Sweep) Options() (experiments.Options, error) {
	o := experiments.Options{
		Quick: s.Quick, Parallelism: s.Parallel, Seed: s.Seed,
		FaultSeed: s.FaultSeed, FaultLinkMTTF: s.FaultLinkMTTF, FaultRepair: s.FaultRepair,
	}
	loads, err := specv1.ParseLoads(s.Loads)
	if err != nil {
		return o, err
	}
	o.Loads = loads
	events, err := ReadFaultSchedule(s.FaultSchedule)
	if err != nil {
		return o, err
	}
	o.FaultEvents = events
	return o, nil
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
