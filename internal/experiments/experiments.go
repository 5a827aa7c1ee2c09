// Package experiments regenerates every figure and study of the paper's
// evaluation section as tables: Fig. 5 (bidirectionality), Fig. 6
// (adaptivity), Fig. 7 (virtual channels), Fig. 8 (buffer depth), the node
// degree study (Sec. 3.5) and the non-uniform traffic study (Sec. 3.6) —
// plus supplementary studies covering the paper's motivation
// (timeout-approximation quality vs true detection) and each of its stated
// future-work items (irregular topologies, hybrid message lengths,
// misrouting, program-driven simulation), along with performance curves,
// mesh/turn-model baselines and victim-policy ablations. Absolute numbers
// depend on the substrate; the shapes — who deadlocks more, by roughly what
// factor, where the crossovers fall — are the reproduction target (recorded
// in EXPERIMENTS.md).
package experiments

import (
	"context"
	"fmt"
	"sort"

	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/fault"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Options controls an experiment run.
type Options struct {
	// Quick scales everything down (8-ary 2-cube, short windows, fewer
	// load points) for tests and benchmarks; the full configuration
	// matches the paper (16-ary 2-cube, 30 000 measured cycles).
	Quick bool
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Seed offsets all run seeds.
	Seed uint64
	// Loads overrides the default load sweep.
	Loads []float64
	// Context cancels the experiment's simulation runs (nil = Background).
	// A cancelled experiment returns an error wrapping the context's; its
	// completed runs are already persisted when a Cache is attached.
	Context context.Context
	// Cache, if non-nil, skips configurations whose results are already
	// persisted and records new completions (see core.OpenCache) — the
	// -cache-dir/-resume machinery.
	Cache *core.Cache
	// OnPoint, if non-nil, is called as each simulation point settles —
	// completed, cached, failed or cancelled — from worker goroutines, so
	// it must be concurrency-safe. charsweep feeds its live progress view
	// with it.
	OnPoint func(p core.Point)
	// Instrumentation is attached to every run of the experiment (see
	// sim.Instrumentation). Its sinks are shared by concurrent runs and must
	// be concurrency-safe (the obs file sinks are); its
	// SpansPath/HeatmapPath should contain a "*" so each run writes its own
	// file. A cached run contributes nothing to any of it.
	Instrumentation sim.Instrumentation
	// FaultSeed/FaultLinkMTTF/FaultRepair/FaultEvents apply a fault
	// schedule to every run of the experiment (see sim.Config) — the
	// -fault-* flags. The faulty experiment sets its own per-point values
	// and ignores these.
	FaultSeed     uint64
	FaultLinkMTTF int
	FaultRepair   int
	FaultEvents   []fault.Event
}

// base returns the starting configuration for the options.
func (o Options) base() core.Config {
	var c core.Config
	if o.Quick {
		c = core.QuickConfig()
	} else {
		c = core.DefaultConfig()
	}
	if o.Seed != 0 {
		c.Seed = o.Seed
	}
	c.Instrumentation = o.Instrumentation
	c.FaultSeed = o.FaultSeed
	c.FaultLinkMTTF = o.FaultLinkMTTF
	c.FaultRepair = o.FaultRepair
	c.FaultEvents = o.FaultEvents
	return c
}

// ctx returns the option's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// runOpts translates the options into sweep options for the core API.
func (o Options) runOpts() []core.Option {
	opts := []core.Option{core.WithParallelism(o.Parallelism)}
	if o.Cache != nil {
		opts = append(opts, core.WithCache(o.Cache))
	}
	if o.OnPoint != nil {
		f := o.OnPoint
		opts = append(opts, core.WithOnDone(func(_ int, p core.Point) { f(p) }))
	}
	return opts
}

// finish distinguishes cancellation from per-run failure: a cancelled
// context is reported as such (the caller can resume from the cache), and
// any other per-point error fails the experiment.
func (o Options) finish(pts []core.Point) ([]core.Point, error) {
	if err := o.ctx().Err(); err != nil {
		return nil, fmt.Errorf("experiments: cancelled: %w", err)
	}
	if err := core.FirstError(pts); err != nil {
		return nil, err
	}
	return pts, nil
}

// runAll executes every configuration with the option's parallelism, cache
// and progress notification, failing on the first per-run error.
func (o Options) runAll(cfgs []core.Config) ([]core.Point, error) {
	return o.finish(core.RunAll(o.ctx(), cfgs, o.runOpts()...))
}

// loads returns the load sweep for the options.
func (o Options) loads() []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	if o.Quick {
		return []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	}
	return core.Loads(0.1, 1.3, 0.1)
}

// Spec renders the option's base configuration crossed with its load axis
// as a versioned sweep spec — the form sweepctl mkspec writes and a sweep
// service executes. The expansion rule (specv1.ExpandLoads) matches
// core.LoadSweep, so a service-run spec shares cache keys with local sweeps.
func Spec(name string, o Options) *specv1.Spec {
	return specv1.LoadSpec(name, o.base(), o.loads())
}

// Census enumeration caps: the paper reports "hundreds of thousands" of
// cycles at saturation; counting past these bounds per detector invocation
// costs time without changing any conclusion, so counts are capped and
// flagged.
const (
	censusCycleCap = 100000
	censusWorkCap  = 2000000
)

// Func runs one experiment and returns its tables.
type Func func(Options) ([]*stats.Table, error)

// registry maps experiment ids to their generators.
var registry = map[string]Func{
	"fig5":      Fig5,
	"fig6":      Fig6,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"degree":    NodeDegree,
	"traffic":   TrafficPatterns,
	"perf":      Performance,
	"ablate":    Ablations,
	"approx":    TimeoutApprox,
	"mesh":      MeshStudy,
	"hybrid":    HybridLength,
	"irregular": IrregularStudy,
	"program":   ProgramDriven,
	"faulty":    FaultStudy,
	"verify":    Verify,
}

// ByName returns the experiment registered under id.
func ByName(id string) (Func, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return f, nil
}

// Names returns the registered experiment ids, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sweep runs base over the option's loads and returns the points, failing
// on the first per-point error.
func sweep(o Options, base core.Config) ([]core.Point, error) {
	return o.finish(core.LoadSweep(o.ctx(), base, o.loads(), o.runOpts()...))
}

// satNote annotates a table with a configuration's saturation load.
func satNote(t *stats.Table, label string, pts []core.Point) {
	t.AddNote("%s saturates at load %.3g (paper marks this with a vertical dashed line)",
		label, core.SaturationLoad(pts))
}

// Fig5 — effect of physical links (bidirectionality): DOR with 1 VC on uni-
// and bidirectional tori. Fig. 5a plots normalized deadlocks vs load;
// Fig. 5b plots deadlock set size vs load. Expected shape: the uni-torus
// suffers far more deadlocks with smaller deadlock sets (its minimal
// deadlock set is 2 messages vs 3 for the bi-torus).
func Fig5(o Options) ([]*stats.Table, error) {
	uniCfg := o.base()
	uniCfg.Routing = "dor"
	uniCfg.VCs = 1
	uniCfg.Bidirectional = false
	uniCfg.Label = "DOR1 uni"
	biCfg := uniCfg
	biCfg.Bidirectional = true
	biCfg.Label = "DOR1 bi"

	uni, err := sweep(o, uniCfg)
	if err != nil {
		return nil, err
	}
	bi, err := sweep(o, biCfg)
	if err != nil {
		return nil, err
	}

	a := stats.NewTable("Fig 5a: normalized deadlocks vs load (DOR, 1 VC)",
		"load", "ndl_uni", "ndl_bi", "sat_uni", "sat_bi")
	b := stats.NewTable("Fig 5b: deadlock set size vs load (DOR, 1 VC)",
		"load", "set_uni", "set_bi", "maxset_uni", "maxset_bi")
	for i := range uni {
		u, v := uni[i].Result, bi[i].Result
		a.AddRow(u.Load, u.NormalizedDeadlocks(), v.NormalizedDeadlocks(), u.Saturated, v.Saturated)
		b.AddRow(u.Load, u.MeanDeadlockSet(), v.MeanDeadlockSet(), u.MaxDeadlockSet, v.MaxDeadlockSet)
	}
	satNote(a, "uni", uni)
	satNote(a, "bi", bi)
	a.AddNote("expected shape: uni >> bi normalized deadlocks; both single-cycle only")
	b.AddNote("expected shape: uni deadlock sets smaller (minimum 2 msgs) than bi (minimum 3)")
	return []*stats.Table{a, b}, nil
}

// Fig6 — effect of adaptivity: DOR vs TFAR, 1 VC, bidirectional, with the
// resource-dependency-cycle census enabled. Fig. 6a plots normalized
// deadlocks and cycles vs load; Fig. 6b plots deadlock and resource set
// sizes. Expected shape: TFAR suffers no deadlocks below saturation but its
// deadlocks are multi-cycle with set sizes 5-7x and resource sets 7-10x
// DOR's; under DOR every CWG cycle is a knot, so its cycle and deadlock
// curves coincide.
func Fig6(o Options) ([]*stats.Table, error) {
	dorCfg := o.base()
	dorCfg.Routing = "dor"
	dorCfg.VCs = 1
	dorCfg.CycleCensus = true
	dorCfg.MaxCycles = censusCycleCap
	dorCfg.MaxWork = censusWorkCap
	dorCfg.Label = "DOR1"
	tfarCfg := dorCfg
	tfarCfg.Routing = "tfar"
	tfarCfg.Label = "TFAR1"

	dor, err := sweep(o, dorCfg)
	if err != nil {
		return nil, err
	}
	tfar, err := sweep(o, tfarCfg)
	if err != nil {
		return nil, err
	}

	a := stats.NewTable("Fig 6a: normalized deadlocks and cycles vs load (1 VC)",
		"load", "ndl_dor", "ncyc_dor", "ndl_tfar", "ncyc_tfar")
	b := stats.NewTable("Fig 6b: deadlock and resource set size vs load (1 VC)",
		"load", "dlset_dor", "dlset_tfar", "rset_dor", "rset_tfar", "knotcyc_dor", "knotcyc_tfar")
	for i := range dor {
		d, t := dor[i].Result, tfar[i].Result
		a.AddRow(d.Load, d.NormalizedDeadlocks(), d.NormalizedCycles(),
			t.NormalizedDeadlocks(), t.NormalizedCycles())
		b.AddRow(d.Load, d.MeanDeadlockSet(), t.MeanDeadlockSet(),
			d.MeanResourceSet(), t.MeanResourceSet(),
			d.MeanKnotCycles(), t.MeanKnotCycles())
	}
	satNote(a, "DOR1", dor)
	satNote(a, "TFAR1", tfar)
	a.AddNote("expected shape: under DOR1 every cycle is a knot (cycles == deadlocks); TFAR1 forms many cyclic non-deadlocks")
	b.AddNote("expected shape: TFAR deadlock sets 5-7x and resource sets 7-10x DOR's; knot cycle density 10x+")
	return []*stats.Table{a, b}, nil
}

// Fig7 — effect of virtual channels: DOR and TFAR with 1-4 VCs, census
// enabled. Fig. 7a plots normalized deadlocks (only DOR1, DOR2 and TFAR1
// ever deadlock); Fig. 7b plots the cycle census vs percent of messages
// blocked. Expected shape: DOR2 deadlocks only around saturation; DOR3+,
// TFAR2+ never deadlock; VCs delay the congestion/cycle explosion to higher
// loads.
func Fig7(o Options) ([]*stats.Table, error) {
	type cfgPts struct {
		label string
		pts   []core.Point
	}
	var all []cfgPts
	for _, alg := range []string{"dor", "tfar"} {
		for vcs := 1; vcs <= 4; vcs++ {
			c := o.base()
			c.Routing = alg
			c.VCs = vcs
			c.CycleCensus = true
			c.MaxCycles = censusCycleCap
			c.MaxWork = censusWorkCap
			c.Label = fmt.Sprintf("%s%d", upper(alg), vcs)
			pts, err := sweep(o, c)
			if err != nil {
				return nil, err
			}
			all = append(all, cfgPts{label: c.Label, pts: pts})
		}
	}

	a := stats.NewTable("Fig 7a: normalized deadlocks vs load (1-4 VCs)")
	a.Headers = append(a.Headers, "load")
	for _, c := range all {
		a.Headers = append(a.Headers, "ndl_"+c.label)
	}
	for i := range all[0].pts {
		row := []interface{}{all[0].pts[i].Load}
		for _, c := range all {
			row = append(row, c.pts[i].Result.NormalizedDeadlocks())
		}
		a.AddRow(row...)
	}
	for _, c := range all {
		total := int64(0)
		for _, p := range c.pts {
			total += p.Result.Deadlocks
		}
		if total == 0 {
			a.AddNote("%s: no deadlocks detected at any load (omitted from the paper's plot)", c.label)
		}
	}
	a.AddNote("expected shape: only DOR1, DOR2 (near saturation) and TFAR1 deadlock; 3 VCs (DOR) / 2 VCs (TFAR) eliminate all deadlocks")

	b := stats.NewTable("Fig 7b: number of cycles vs percent of messages blocked",
		"config", "load", "pct_blocked", "mean_cycles", "max_cycles", "capped")
	for _, c := range all {
		for _, p := range c.pts {
			r := p.Result
			b.AddRow(c.label, r.Load, 100*r.BlockedFraction(), r.MeanCensusCycles(),
				r.MaxCycles, r.CensusCapped)
		}
	}
	b.AddNote("expected shape: added VCs push cycle formation to higher loads, then cycles grow explosively at saturation")
	return []*stats.Table{a, b}, nil
}

// Fig8 — effect of buffer depth: TFAR, 1 VC, buffer depths 2-32 flits
// (depth 32 = message length = virtual cut-through). Fig. 8a plots
// normalized deadlocks vs load; Fig. 8b normalizes by messages resident in
// the network. Expected shape: larger buffers raise the saturation load
// (message compaction) and virtual cut-through yields the fewest deadlocks.
func Fig8(o Options) ([]*stats.Table, error) {
	depths := []int{2, 4, 6, 8, 16, 32}
	a := stats.NewTable("Fig 8a: normalized deadlocks vs load (TFAR, 1 VC, buffer depth sweep)")
	b := stats.NewTable("Fig 8b: deadlocks vs messages in network",
		"buffer", "load", "mean_msgs_in_net", "ndl", "dl_per_msg_in_net")
	a.Headers = append(a.Headers, "load")
	var cols [][]core.Point
	for _, d := range depths {
		c := o.base()
		c.Routing = "tfar"
		c.VCs = 1
		c.BufferDepth = d
		c.Label = fmt.Sprintf("buf%d", d)
		pts, err := sweep(o, c)
		if err != nil {
			return nil, err
		}
		cols = append(cols, pts)
		a.Headers = append(a.Headers, fmt.Sprintf("ndl_buf%d", d))
		satNote(a, c.Label, pts)
		for _, p := range pts {
			r := p.Result
			b.AddRow(d, r.Load, r.MeanActive, r.NormalizedDeadlocks(), r.DeadlocksPerInNetworkMsg())
		}
	}
	for i := range cols[0] {
		row := []interface{}{cols[0][i].Load}
		for _, pts := range cols {
			row = append(row, pts[i].Result.NormalizedDeadlocks())
		}
		a.AddRow(row...)
	}
	a.AddNote("expected shape: depth 32 (virtual cut-through, buffer == message) yields the fewest deadlocks; larger buffers saturate at higher loads")
	b.AddNote("expected shape: per message in the network, small buffers deadlock substantially more (each message needs more simultaneous channels)")
	return []*stats.Table{a, b}, nil
}

// NodeDegree — Sec. 3.5: TFAR with 1 VC on a 2-D vs a 4-D torus with the
// same node count (16-ary 2-cube vs 4-ary 4-cube; quick mode uses 8-ary
// 2-cube vs 4-ary 3-cube at 64 nodes). Loads are normalized per topology
// (capacity accounts for link count and average distance). Expected shape:
// the high-degree network suffers far fewer deadlocks (<1% of the 2-D
// count before saturation), all single-cycle.
func NodeDegree(o Options) ([]*stats.Table, error) {
	low := o.base()
	low.Routing = "tfar"
	low.VCs = 1
	low.Label = fmt.Sprintf("%d-ary %d-cube", low.K, low.N)
	high := low
	if o.Quick {
		high.K, high.N = 4, 3
	} else {
		high.K, high.N = 4, 4
	}
	high.Label = fmt.Sprintf("%d-ary %d-cube", high.K, high.N)

	lo, err := sweep(o, low)
	if err != nil {
		return nil, err
	}
	hi, err := sweep(o, high)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Sec 3.5: node degree (TFAR, 1 VC)",
		"load", "ndl_"+low.Label, "ndl_"+high.Label,
		"dl_"+low.Label, "dl_"+high.Label, "multi_"+high.Label)
	for i := range lo {
		l, h := lo[i].Result, hi[i].Result
		t.AddRow(l.Load, l.NormalizedDeadlocks(), h.NormalizedDeadlocks(),
			l.Deadlocks, h.Deadlocks, h.MultiCycle)
	}
	satNote(t, low.Label, lo)
	satNote(t, high.Label, hi)
	t.AddNote("expected shape: the higher-degree torus has far fewer deadlocks, and those few are single-cycle")
	return []*stats.Table{t}, nil
}

// TrafficPatterns — Sec. 3.6: non-uniform traffic (bit-reversal, transpose,
// perfect-shuffle, hot-spot) vs uniform under DOR1 and TFAR1 at a
// saturating load. Expected shape: deadlock frequency and characteristics
// within ~10% of uniform, except DOR under permutations whose source/
// destination pairs cannot circularly overlap.
func TrafficPatterns(o Options) ([]*stats.Table, error) {
	patterns := []string{"uniform", "bitrev", "transpose", "shuffle", "hotspot"}
	load := 1.0
	if len(o.Loads) > 0 {
		load = o.Loads[len(o.Loads)-1]
	}
	t := stats.NewTable(fmt.Sprintf("Sec 3.6: traffic patterns at load %.2f", load),
		"pattern", "routing", "ndl", "deadlocks", "mean_dlset", "mean_rset", "mean_knotcyc", "sat")
	var cfgs []core.Config
	for _, alg := range []string{"dor", "tfar"} {
		for _, pat := range patterns {
			c := o.base()
			c.Routing = alg
			c.VCs = 1
			c.Traffic = pat
			c.Load = load
			c.Label = pat + "/" + alg
			cfgs = append(cfgs, c)
		}
	}
	pts, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		r := p.Result
		t.AddRow(cfgs[i].Traffic, cfgs[i].Routing, r.NormalizedDeadlocks(), r.Deadlocks,
			r.MeanDeadlockSet(), r.MeanResourceSet(), r.MeanKnotCycles(), r.Saturated)
	}
	t.AddNote("expected shape: non-uniform patterns within ~10%% of uniform, except DOR under permutations lacking circular overlap")
	return []*stats.Table{t}, nil
}

// Performance — supplementary: throughput and latency vs load for the four
// main configurations, giving the saturation context the paper's dashed
// vertical lines encode.
func Performance(o Options) ([]*stats.Table, error) {
	t := stats.NewTable("Supplementary: throughput/latency vs load",
		"config", "load", "throughput", "offered", "latency", "lat_p95", "lat_p99", "pct_blocked",
		"det_build_us", "det_build_p95_us", "det_analyze_us", "det_analyze_p95_us", "sat")
	for _, spec := range []struct {
		alg string
		vcs int
	}{{"dor", 1}, {"dor", 2}, {"tfar", 1}, {"tfar", 2}} {
		c := o.base()
		c.Routing = spec.alg
		c.VCs = spec.vcs
		c.Label = fmt.Sprintf("%s%d", upper(spec.alg), spec.vcs)
		pts, err := sweep(o, c)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			r := p.Result
			t.AddRow(c.Label, r.Load, r.Throughput(), r.OfferedRate(), r.MeanLatency(),
				r.Latency.Quantile(0.95), r.Latency.Quantile(0.99),
				100*r.BlockedFraction(),
				r.DetectBuildTime.Mean()/1e3, float64(r.DetectBuildTime.Quantile(0.95))/1e3,
				r.DetectAnalyzeTime.Mean()/1e3, float64(r.DetectAnalyzeTime.Quantile(0.95))/1e3,
				r.Saturated)
		}
	}
	t.AddNote("expected shape: DOR sustains higher post-saturation throughput than TFAR1 despite more (smaller) deadlocks")
	return []*stats.Table{t}, nil
}

// Ablations — supplementary design-choice studies from DESIGN.md: recovery
// victim policy and misrouting, at a deep-saturation load with TFAR1.
func Ablations(o Options) ([]*stats.Table, error) {
	load := 1.0
	t := stats.NewTable(fmt.Sprintf("Ablation: victim policy and misrouting (TFAR1, load %.2f)", load),
		"variant", "ndl", "deadlocks", "throughput", "latency", "recovered")
	var cfgs []core.Config
	for _, pol := range []string{"oldest", "most", "fewest", "random"} {
		c := o.base()
		c.Routing = "tfar"
		c.VCs = 1
		c.Load = load
		c.VictimPolicy = pol
		c.Label = "victim=" + pol
		cfgs = append(cfgs, c)
	}
	for _, alg := range []string{"tfar", "misroute-far"} {
		c := o.base()
		c.Routing = alg
		c.VCs = 1
		c.Load = load
		c.Label = "routing=" + alg
		cfgs = append(cfgs, c)
	}
	// Instant vs flit-by-flit recovery drain.
	for _, rate := range []int{0, 1, 4} {
		c := o.base()
		c.Routing = "tfar"
		c.VCs = 1
		c.Load = load
		c.RecoveryDrainRate = rate
		c.Label = fmt.Sprintf("drain=%d", rate)
		cfgs = append(cfgs, c)
	}
	pts, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		r := p.Result
		t.AddRow(cfgs[i].Label, r.NormalizedDeadlocks(), r.Deadlocks, r.Throughput(),
			r.MeanLatency(), r.Recovered)
	}
	return []*stats.Table{t}, nil
}

func upper(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c >= 'a' && c <= 'z' {
			out[i] = c - 'a' + 'A'
		}
	}
	return string(out)
}
