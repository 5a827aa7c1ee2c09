// Package experiments regenerates every figure and study of the paper's
// evaluation section as tables: Fig. 5 (bidirectionality), Fig. 6
// (adaptivity), Fig. 7 (virtual channels), Fig. 8 (buffer depth), the node
// degree study (Sec. 3.5) and the non-uniform traffic study (Sec. 3.6) —
// plus supplementary studies covering the paper's motivation (recovery vs
// avoidance, timeout-approximation quality vs true detection) and each of
// its stated future-work items (irregular topologies, hybrid message
// lengths, misrouting, program-driven simulation), along with performance
// curves, mesh/turn-model baselines and victim-policy ablations. Absolute
// numbers depend on the substrate; the shapes — who deadlocks more, by
// roughly what factor, where the crossovers fall — are the reproduction
// target (recorded in EXPERIMENTS.md).
//
// A simulation study is declared data: its Plan is a specv1 spec, and its
// Tabulate turns that spec's results into tables. Running the plan is the
// caller's job — charsweep runs it with a result store and /progress, a
// sweep service runs it on a fleet — so the same figure can be computed in
// one place and tabulated in another.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"flexsim/internal/api/specv1"
	"flexsim/internal/fault"
	"flexsim/internal/jsonlog"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Options selects what an experiment simulates. How its runs execute —
// parallelism, the result store, progress, cancellation — belongs to
// whoever runs the plan.
type Options struct {
	// Quick scales everything down (8-ary 2-cube, short windows, fewer
	// load points) for tests and benchmarks; the full configuration
	// matches the paper (16-ary 2-cube, 30 000 measured cycles).
	Quick bool
	// Seed offsets all run seeds.
	Seed uint64
	// Loads overrides the default load sweep.
	Loads []float64
	// Instrumentation is attached to every run approx makes (see
	// sim.Instrumentation). Its sinks are shared by concurrent runs and must
	// be concurrency-safe (the obs file sinks are); its
	// SpansPath/HeatmapPath should contain a "*" so each run writes its own
	// file. A plan carries none: whoever runs it attaches its own.
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
func (o Options) base() sim.Config {
	var c sim.Config
	if o.Quick {
		c = sim.Quick()
	} else {
		c = sim.Default()
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

// loads returns the load sweep for the options.
func (o Options) loads() []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	if o.Quick {
		return []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	}
	return specv1.Loads(0.1, 1.3, 0.1)
}

// sweeps crosses each base configuration with the option's loads, in order,
// seeding every point by specv1.ExpandLoads' rule — the one the store's keys
// were made with.
func (o Options) sweeps(bases ...sim.Config) []sim.Config {
	var cfgs []sim.Config
	for _, b := range bases {
		cfgs = append(cfgs, specv1.ExpandLoads(b, o.loads())...)
	}
	return cfgs
}

// Census enumeration caps: the paper reports "hundreds of thousands" of
// cycles at saturation; counting past these bounds per detector invocation
// costs time without changing any conclusion, so counts are capped and
// flagged.
const (
	censusCycleCap = 100000
	censusWorkCap  = 2000000
)

// Func runs one experiment under ctx and returns its tables; a cancelled
// ctx stops it with the context's error.
type Func func(context.Context, Options) ([]*stats.Table, error)

// Study is one simulation study: the configurations it runs, and the tables
// it reads from their results.
type Study struct {
	name    string
	configs func(Options) []sim.Config
	// tables reads the study's points, decoded in plan order, none failed.
	tables func(cfgs []sim.Config, pts []runner.Point) []*stats.Table
}

// Plan lists the study's points under o as a spec named after the study:
// explicit configurations, labels and seeds, ready for charsweep -spec or
// a sweep service. Instrumentation does not travel in a spec.
func (s *Study) Plan(o Options) *specv1.Spec {
	cfgs := s.configs(o)
	spec := &specv1.Spec{SchemaVersion: specv1.Version, Name: s.name, Points: make([]specv1.PointConfig, len(cfgs))}
	for i, c := range cfgs {
		spec.Points[i] = specv1.FromSim(c)
	}
	return spec
}

// Tabulate builds the study's tables from the results of its plan — one
// result per point, in index order — wherever they were computed. It
// simulates nothing. A point that did not complete fails the study with its
// error, named by its load.
func (s *Study) Tabulate(spec *specv1.Spec, results []specv1.PointResult) ([]*stats.Table, error) {
	cfgs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	if len(results) != len(cfgs) {
		return nil, fmt.Errorf("experiments: %s: %d results for %d points", s.name, len(results), len(cfgs))
	}
	pts := make([]runner.Point, len(results))
	for i, pr := range results {
		if pr.Index != i {
			return nil, fmt.Errorf("experiments: %s: result %d is point %d; want results in index order", s.name, i, pr.Index)
		}
		pts[i] = runner.Point{Index: i, Load: pr.Load}
		switch {
		case pr.Status == specv1.StatusFailed || pr.Status == specv1.StatusCancelled:
			pts[i].Err = errors.New(pr.Error)
		default:
			pts[i].Result = new(stats.Result)
			pts[i].Err = jsonlog.Unmarshal(pr.Result, pts[i].Result)
		}
	}
	if err := runner.FirstError(pts); err != nil {
		return nil, err
	}
	return s.tables(cfgs, pts), nil
}

// studies are the simulation studies, in no particular order.
var studies = []*Study{
	{"fig5", fig5Configs, fig5Tables},
	{"fig6", fig6Configs, fig6Tables},
	{"fig7", fig7Configs, fig7Tables},
	{"fig8", fig8Configs, fig8Tables},
	{"degree", degreeConfigs, degreeTables},
	{"traffic", trafficConfigs, trafficTables},
	{"perf", perfConfigs, perfTables},
	{"ablate", ablateConfigs, ablateTables},
	{"mesh", meshConfigs, meshTables},
	{"hybrid", hybridConfigs, hybridTables},
	{"irregular", irregularConfigs, irregularTables},
	{"faulty", faultyConfigs, faultyTables},
	{"program", programConfigs, programTables},
	{"avoidance", avoidanceConfigs, avoidanceTables},
}

// nonSweeps are the two experiments that are not simulation studies: approx
// reads detector state no result carries, and verify model-checks.
var nonSweeps = map[string]Func{"approx": TimeoutApprox, "verify": Verify}

// ByName returns the Func of approx or verify, the experiments that are not
// sweeps; a study runs as its Plan, then Tabulate (StudyByName).
func ByName(id string) (Func, error) {
	if f, ok := nonSweeps[id]; ok {
		return f, nil
	}
	_, err := StudyByName(id)
	if err == nil {
		err = fmt.Errorf("experiments: %s is a sweep: run its plan and tabulate it", id)
	}
	return nil, err
}

// StudyByName returns the simulation study registered under id. approx and
// verify are experiments but not sweeps: they have no plan.
func StudyByName(id string) (*Study, error) {
	for _, s := range studies {
		if s.name == id {
			return s, nil
		}
	}
	if _, ok := nonSweeps[id]; ok {
		return nil, fmt.Errorf("experiments: %s is not a sweep: it has no plan to run elsewhere", id)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
}

// Names returns every experiment id, sorted.
func Names() []string {
	names := make([]string, 0, len(studies)+len(nonSweeps))
	for _, s := range studies {
		names = append(names, s.name)
	}
	for n := range nonSweeps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// curve is one configuration of a load sweep and its points.
type curve struct {
	cfg sim.Config
	pts []runner.Point
}

// curves splits planned load sweeps back into their configurations: runs of
// consecutive points under one label.
func curves(cfgs []sim.Config, pts []runner.Point) []curve {
	var out []curve
	for i, c := range cfgs {
		if i == 0 || c.Label != cfgs[i-1].Label {
			out = append(out, curve{cfg: c})
		}
		out[len(out)-1].pts = append(out[len(out)-1].pts, pts[i])
	}
	return out
}

// ndlByLoad is a table of normalized deadlocks with one row per load and
// one column per curve.
func ndlByLoad(title string, all []curve) *stats.Table {
	t := stats.NewTable(title, "load")
	for _, c := range all {
		t.Headers = append(t.Headers, "ndl_"+c.cfg.Label)
	}
	for i, p := range all[0].pts {
		row := []interface{}{p.Load}
		for _, c := range all {
			row = append(row, c.pts[i].Result.NormalizedDeadlocks())
		}
		t.AddRow(row...)
	}
	return t
}

// satNote annotates a table with a configuration's saturation load.
func satNote(t *stats.Table, label string, pts []runner.Point) {
	t.AddNote("%s saturates at load %.3g (paper marks this with a vertical dashed line)",
		label, runner.SaturationLoad(pts))
}

// Fig. 5 — effect of physical links (bidirectionality): DOR with 1 VC on
// uni- and bidirectional tori. Fig. 5a plots normalized deadlocks vs load;
// Fig. 5b plots deadlock set size vs load. Expected shape: the uni-torus
// suffers far more deadlocks with smaller deadlock sets (its minimal
// deadlock set is 2 messages vs 3 for the bi-torus).
func fig5Configs(o Options) []sim.Config {
	uni := o.base()
	uni.Routing = "dor"
	uni.VCs = 1
	uni.Bidirectional = false
	uni.Label = "DOR1 uni"
	bi := uni
	bi.Bidirectional = true
	bi.Label = "DOR1 bi"
	return o.sweeps(uni, bi)
}

func fig5Tables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	c := curves(cfgs, pts)
	uni, bi := c[0].pts, c[1].pts
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
	return []*stats.Table{a, b}
}

// Fig. 6 — effect of adaptivity: DOR vs TFAR, 1 VC, bidirectional, with the
// resource-dependency-cycle census enabled. Fig. 6a plots normalized
// deadlocks and cycles vs load; Fig. 6b plots deadlock and resource set
// sizes. Expected shape: TFAR suffers no deadlocks below saturation but its
// deadlocks are multi-cycle with set sizes 5-7x and resource sets 7-10x
// DOR's; under DOR every CWG cycle is a knot, so its cycle and deadlock
// curves coincide.
func fig6Configs(o Options) []sim.Config {
	dor := o.base()
	dor.Routing = "dor"
	dor.VCs = 1
	dor.CycleCensus = true
	dor.MaxCycles = censusCycleCap
	dor.MaxWork = censusWorkCap
	dor.Label = "DOR1"
	tfar := dor
	tfar.Routing = "tfar"
	tfar.Label = "TFAR1"
	return o.sweeps(dor, tfar)
}

func fig6Tables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	c := curves(cfgs, pts)
	dor, tfar := c[0].pts, c[1].pts
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
	return []*stats.Table{a, b}
}

// Fig. 7 — effect of virtual channels: DOR and TFAR with 1-4 VCs, census
// enabled. Fig. 7a plots normalized deadlocks (only DOR1, DOR2 and TFAR1
// ever deadlock); Fig. 7b plots the cycle census vs percent of messages
// blocked. Expected shape: DOR2 deadlocks only around saturation; DOR3+,
// TFAR2+ never deadlock; VCs delay the congestion/cycle explosion to higher
// loads.
func fig7Configs(o Options) []sim.Config {
	var bases []sim.Config
	for _, alg := range []string{"dor", "tfar"} {
		for vcs := 1; vcs <= 4; vcs++ {
			c := o.base()
			c.Routing = alg
			c.VCs = vcs
			c.CycleCensus = true
			c.MaxCycles = censusCycleCap
			c.MaxWork = censusWorkCap
			c.Label = fmt.Sprintf("%s%d", upper(alg), vcs)
			bases = append(bases, c)
		}
	}
	return o.sweeps(bases...)
}

func fig7Tables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	all := curves(cfgs, pts)
	a := ndlByLoad("Fig 7a: normalized deadlocks vs load (1-4 VCs)", all)
	for _, c := range all {
		total := int64(0)
		for _, p := range c.pts {
			total += p.Result.Deadlocks
		}
		if total == 0 {
			a.AddNote("%s: no deadlocks detected at any load (omitted from the paper's plot)", c.cfg.Label)
		}
	}
	a.AddNote("expected shape: only DOR1, DOR2 (near saturation) and TFAR1 deadlock; 3 VCs (DOR) / 2 VCs (TFAR) eliminate all deadlocks")

	b := stats.NewTable("Fig 7b: number of cycles vs percent of messages blocked",
		"config", "load", "pct_blocked", "mean_cycles", "max_cycles", "capped")
	for _, c := range all {
		for _, p := range c.pts {
			r := p.Result
			b.AddRow(c.cfg.Label, r.Load, 100*r.BlockedFraction(), r.MeanCensusCycles(),
				r.MaxCycles, r.CensusCapped)
		}
	}
	b.AddNote("expected shape: added VCs push cycle formation to higher loads, then cycles grow explosively at saturation")
	return []*stats.Table{a, b}
}

// Fig. 8 — effect of buffer depth: TFAR, 1 VC, buffer depths 2-32 flits
// (depth 32 = message length = virtual cut-through). Fig. 8a plots
// normalized deadlocks vs load; Fig. 8b normalizes by messages resident in
// the network. Expected shape: larger buffers raise the saturation load
// (message compaction) and virtual cut-through yields the fewest deadlocks.
func fig8Configs(o Options) []sim.Config {
	var bases []sim.Config
	for _, d := range []int{2, 4, 6, 8, 16, 32} {
		c := o.base()
		c.Routing = "tfar"
		c.VCs = 1
		c.BufferDepth = d
		c.Label = fmt.Sprintf("buf%d", d)
		bases = append(bases, c)
	}
	return o.sweeps(bases...)
}

func fig8Tables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	all := curves(cfgs, pts)
	a := ndlByLoad("Fig 8a: normalized deadlocks vs load (TFAR, 1 VC, buffer depth sweep)", all)
	b := stats.NewTable("Fig 8b: deadlocks vs messages in network",
		"buffer", "load", "mean_msgs_in_net", "ndl", "dl_per_msg_in_net")
	for _, c := range all {
		satNote(a, c.cfg.Label, c.pts)
		for _, p := range c.pts {
			r := p.Result
			b.AddRow(c.cfg.BufferDepth, r.Load, r.MeanActive, r.NormalizedDeadlocks(), r.DeadlocksPerInNetworkMsg())
		}
	}
	a.AddNote("expected shape: depth 32 (virtual cut-through, buffer == message) yields the fewest deadlocks; larger buffers saturate at higher loads")
	b.AddNote("expected shape: per message in the network, small buffers deadlock substantially more (each message needs more simultaneous channels)")
	return []*stats.Table{a, b}
}

// Sec. 3.5 — node degree: TFAR with 1 VC on a 2-D vs a 4-D torus with the
// same node count (16-ary 2-cube vs 4-ary 4-cube; quick mode uses 8-ary
// 2-cube vs 4-ary 3-cube at 64 nodes). Loads are normalized per topology
// (capacity accounts for link count and average distance). Expected shape:
// the high-degree network suffers far fewer deadlocks (<1% of the 2-D
// count before saturation), all single-cycle.
func degreeConfigs(o Options) []sim.Config {
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
	return o.sweeps(low, high)
}

func degreeTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	c := curves(cfgs, pts)
	low, high := c[0].cfg.Label, c[1].cfg.Label
	t := stats.NewTable("Sec 3.5: node degree (TFAR, 1 VC)",
		"load", "ndl_"+low, "ndl_"+high, "dl_"+low, "dl_"+high, "multi_"+high)
	for i := range c[0].pts {
		l, h := c[0].pts[i].Result, c[1].pts[i].Result
		t.AddRow(l.Load, l.NormalizedDeadlocks(), h.NormalizedDeadlocks(),
			l.Deadlocks, h.Deadlocks, h.MultiCycle)
	}
	satNote(t, low, c[0].pts)
	satNote(t, high, c[1].pts)
	t.AddNote("expected shape: the higher-degree torus has far fewer deadlocks, and those few are single-cycle")
	return []*stats.Table{t}
}

// Sec. 3.6 — non-uniform traffic (bit-reversal, transpose, perfect-shuffle,
// hot-spot) vs uniform under DOR1 and TFAR1 at a saturating load (the last
// of -loads, default 1.0). Expected shape: deadlock frequency and
// characteristics within ~10% of uniform, except DOR under permutations
// whose source/destination pairs cannot circularly overlap.
func trafficConfigs(o Options) []sim.Config {
	load := 1.0
	if len(o.Loads) > 0 {
		load = o.Loads[len(o.Loads)-1]
	}
	var cfgs []sim.Config
	for _, alg := range []string{"dor", "tfar"} {
		for _, pat := range []string{"uniform", "bitrev", "transpose", "shuffle", "hotspot"} {
			c := o.base()
			c.Routing = alg
			c.VCs = 1
			c.Traffic = pat
			c.Load = load
			c.Label = pat + "/" + alg
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func trafficTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable(fmt.Sprintf("Sec 3.6: traffic patterns at load %.2f", cfgs[0].Load),
		"pattern", "routing", "ndl", "deadlocks", "mean_dlset", "mean_rset", "mean_knotcyc", "sat")
	for i, p := range pts {
		r := p.Result
		t.AddRow(cfgs[i].Traffic, cfgs[i].Routing, r.NormalizedDeadlocks(), r.Deadlocks,
			r.MeanDeadlockSet(), r.MeanResourceSet(), r.MeanKnotCycles(), r.Saturated)
	}
	t.AddNote("expected shape: non-uniform patterns within ~10%% of uniform, except DOR under permutations lacking circular overlap")
	return []*stats.Table{t}
}

// Supplementary — throughput and latency vs load for the four main
// configurations, giving the saturation context the paper's dashed
// vertical lines encode.
func perfConfigs(o Options) []sim.Config {
	var bases []sim.Config
	for _, spec := range []struct {
		alg string
		vcs int
	}{{"dor", 1}, {"dor", 2}, {"tfar", 1}, {"tfar", 2}} {
		c := o.base()
		c.Routing = spec.alg
		c.VCs = spec.vcs
		c.Label = fmt.Sprintf("%s%d", upper(spec.alg), spec.vcs)
		bases = append(bases, c)
	}
	return o.sweeps(bases...)
}

func perfTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable("Supplementary: throughput/latency vs load",
		"config", "load", "throughput", "offered", "latency", "lat_p95", "lat_p99", "pct_blocked",
		"det_build_us", "det_build_p95_us", "det_analyze_us", "det_analyze_p95_us", "sat")
	for _, c := range curves(cfgs, pts) {
		for _, p := range c.pts {
			r := p.Result
			t.AddRow(c.cfg.Label, r.Load, r.Throughput(), r.OfferedRate(), r.MeanLatency(),
				r.Latency.Quantile(0.95), r.Latency.Quantile(0.99),
				100*r.BlockedFraction(),
				r.DetectBuildTime.Mean()/1e3, float64(r.DetectBuildTime.Quantile(0.95))/1e3,
				r.DetectAnalyzeTime.Mean()/1e3, float64(r.DetectAnalyzeTime.Quantile(0.95))/1e3,
				r.Saturated)
		}
	}
	t.AddNote("expected shape: DOR sustains higher post-saturation throughput than TFAR1 despite more (smaller) deadlocks")
	return []*stats.Table{t}
}

// Ablations — supplementary design-choice studies from DESIGN.md: recovery
// victim policy, misrouting and the recovery drain rate, at a
// deep-saturation load with TFAR1.
func ablateConfigs(o Options) []sim.Config {
	variant := func(label string, set func(*sim.Config)) sim.Config {
		c := o.base()
		c.Routing = "tfar"
		c.VCs = 1
		c.Load = 1.0
		c.Label = label
		set(&c)
		return c
	}
	var cfgs []sim.Config
	for _, pol := range []string{"oldest", "most", "fewest", "random"} {
		cfgs = append(cfgs, variant("victim="+pol, func(c *sim.Config) { c.VictimPolicy = pol }))
	}
	for _, alg := range []string{"tfar", "misroute-far"} {
		cfgs = append(cfgs, variant("routing="+alg, func(c *sim.Config) { c.Routing = alg }))
	}
	// Instant vs flit-by-flit recovery drain.
	for _, rate := range []int{0, 1, 4} {
		cfgs = append(cfgs, variant(fmt.Sprintf("drain=%d", rate), func(c *sim.Config) { c.RecoveryDrainRate = rate }))
	}
	return cfgs
}

func ablateTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable(fmt.Sprintf("Ablation: victim policy and misrouting (TFAR1, load %.2f)", cfgs[0].Load),
		"variant", "ndl", "deadlocks", "throughput", "latency", "recovered")
	for i, p := range pts {
		r := p.Result
		t.AddRow(cfgs[i].Label, r.NormalizedDeadlocks(), r.Deadlocks, r.Throughput(),
			r.MeanLatency(), r.Recovered)
	}
	return []*stats.Table{t}
}

func upper(s string) string { return strings.ToUpper(s) }
