// Package sim assembles topology, routing, network, traffic, detection and
// statistics into a reproducible single run: warm the network up, measure
// for a fixed window with the deadlock detector invoked periodically
// (recovering from any deadlock it finds, including during warmup), and
// report a stats.Result.
//
// The cycle loop is driven from a single goroutine and fully deterministic
// per seed. Parallelism belongs one level up: runner.Map runs independent
// points on separate goroutines.
package sim

import (
	"context"
	"fmt"
	"os"
	"strings"

	"flexsim/internal/detect"
	"flexsim/internal/fault"
	"flexsim/internal/message"
	"flexsim/internal/network"
	"flexsim/internal/obs"
	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/stats"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
	"flexsim/internal/traffic"
	"flexsim/internal/workload"
)

// Config describes one simulation run: what to simulate (Spec) and how to
// run and observe it (Instrumentation). Both are embedded, so their fields
// read as Config's own. The zero value is not runnable; use Default() and
// override.
type Config struct {
	Spec
	Instrumentation
}

// Spec is the physics of a run: exactly the fields that determine its
// stats.Result. It is what runner.Key hashes and — converted to
// specv1.PointConfig, which has the same fields in the same order under
// wire names — what travels to a sweep service.
type Spec struct {
	// Topology.
	K             int
	N             int
	Bidirectional bool
	// Mesh disables wraparound links (k-ary n-mesh; always
	// bidirectional). On a mesh, DOR and the turn-model algorithms are
	// deadlock-free.
	Mesh bool
	// IrregularNodes, when > 0, replaces the k-ary n-cube with a random
	// connected irregular switch network of that many nodes (the paper's
	// future-work topology), with IrregularLinks links beyond its
	// spanning tree, derived deterministically from Seed. Use routing
	// "updown" (deadlock-free) or "min-adaptive" (unrestricted) and a
	// non-coordinate traffic pattern (uniform, hotspot).
	IrregularNodes int
	IrregularLinks int

	// Router resources.
	VCs         int // virtual channels per physical channel
	BufferDepth int // flits per VC edge buffer
	MsgLen      int // flits per message
	// Hybrid (bimodal) message lengths — the paper's future-work item.
	// When ShortFrac > 0, each message is MsgLenShort flits with that
	// probability and MsgLen flits otherwise; offered load normalizes by
	// the mean length.
	MsgLenShort int
	ShortFrac   float64

	// Routing and traffic.
	Routing     string  // routing.Names()
	Traffic     string  // traffic.Names()
	HotspotFrac float64 // for Traffic == "hotspot"
	Load        float64 // normalized offered load (1.0 = capacity)

	// Workload, when nonempty, replaces the open-loop traffic process
	// with a program-driven driver ("stencil" or "allreduce" — the
	// paper's program-driven-simulation future-work item). The run then
	// executes WorkloadPhases phases with ComputeDelay compute cycles
	// between them, ending when the program completes (or at the
	// WarmupCycles+MeasureCycles safety cap); Load and Traffic are
	// ignored.
	Workload       string
	WorkloadPhases int
	ComputeDelay   int

	// Run control.
	Seed          uint64
	WarmupCycles  int
	MeasureCycles int

	// Fault injection (see the fault package). FaultEvents is an explicit
	// schedule (e.g. parsed from a -fault-schedule file). FaultLinkMTTF,
	// when > 0, additionally generates link failures with that mean
	// time-to-failure per directed channel, each repaired FaultRepair
	// cycles later (FaultRepair <= 0 leaves failed links down), over the
	// whole run. Generation draws from rng.Stream(seed, "fault") — a
	// stream derived from the seed value alone — so attaching a schedule
	// never perturbs traffic or workload draws. FaultSeed overrides the
	// stream seed (0 = use Seed). A changed schedule is a different cache
	// entry, like any other Spec field.
	FaultSeed     uint64
	FaultLinkMTTF int
	FaultRepair   int
	FaultEvents   []fault.Event

	// Deadlock detection and recovery.
	DetectEvery       int    // detector period (paper: 50)
	VictimPolicy      string // detect.ParsePolicy
	Recover           bool
	KnotCycles        bool // count knot cycle densities
	CycleCensus       bool // whole-graph cycle census per invocation
	MaxCycles         int  // enumeration cap (0 = default)
	MaxWork           int
	RecoveryDrainRate int // victim flits absorbed per cycle (0 = instant)
	KeepEvents        bool
	// TimeoutThresholds enables timeout-approximation scoring against
	// true detection (see detect.TimeoutCounts); results are read from
	// Runner.Detector.Timeout.
	TimeoutThresholds []int64

	// Validation.
	CheckInvariants bool

	// Label for result tables; defaults to "<routing><vcs>".
	Label string
}

// Instrumentation is how a run is executed and observed. No field changes a
// stats.Result bit, so none is hashed into the cache key or has a wire form:
// toggling any of them is served by the same cache entry. All hooks are
// optional and nil-guarded; the zero value runs the bare cycle loop.
type Instrumentation struct {
	Shards int // inert; kept only for bench/; ROADMAP 1(a) deletes it

	// Tracer, if non-nil, receives message lifecycle events from the
	// network (see the trace package).
	Tracer trace.Tracer

	// Interval metrics (see the obs package). MetricsEvery > 0 (or a
	// non-nil MetricsLive) samples interval gauges every MetricsEvery cycles
	// (0 with MetricsLive set = the obs default cadence) into a Recorder,
	// flushed to MetricsSink at Finish. MetricsLive additionally mirrors
	// each sample into atomics for a live /metrics endpoint. Incidents wires
	// a deadlock post-mortem log as the detector's observer; IncidentDOT
	// adds a knot-subgraph DOT snapshot to each incident.
	MetricsEvery int
	MetricsSink  obs.RunSink
	MetricsLive  *obs.Live
	Incidents    *obs.IncidentLog
	IncidentDOT  bool

	// SpansPath, when nonempty, has the run stream itself to this file as a
	// Chrome trace-event (Perfetto) timeline: per-message lifecycle spans
	// derived from the trace stream plus a detector track of pass spans.
	// The run opens and closes the file. A "*" in the path expands to
	// "<label>-s<seed>-l<load>" so sweeps write one file per run.
	SpansPath string
	// TraceContext, when nonempty, is the fleet span this run executes
	// under (W3C traceparent form, minted by the sweep coordinator). It is
	// stamped into the run's Perfetto artifact so per-run timelines join
	// the coordinator's fleet timeline by trace and span ID.
	TraceContext string

	// HeatmapPath, when nonempty, has the run accumulate per-VC
	// occupancy/block counts on the metrics cadence (forcing a recorder
	// even when MetricsEvery is 0) and write them there as CSV when
	// finished. "*" expands as in SpansPath.
	HeatmapPath string

	// ForensicsDepth > 0 attaches a resource-event ring of that many
	// events to the network and a FormationAnalyzer (Runner.Forensics);
	// when Incidents is also set, every incident gains replayed formation
	// metrics.
	ForensicsDepth int

	// ProfileEngine attaches the cycle engine's telemetry
	// (network.EngineStats, read back through Net.EngineStatsAttached):
	// the wall time of each of Step's four phase groups. Unprofiled runs
	// pay nil checks only.
	ProfileEngine bool
}

// Default returns the paper's default configuration: 16-ary 2-cube,
// bidirectional, 1 VC, 2-flit buffers, 32-flit messages, uniform traffic,
// TFAR, detector every 50 cycles with oldest-blocked victim recovery, 30 000
// measured cycles.
func Default() Config {
	return Config{Spec: Spec{
		K: 16, N: 2, Bidirectional: true,
		VCs: 1, BufferDepth: 2, MsgLen: 32,
		Routing: "tfar", Traffic: "uniform",
		Load:         0.5,
		Seed:         1,
		WarmupCycles: 10000, MeasureCycles: 30000,
		DetectEvery: 50, VictimPolicy: "oldest",
		Recover: true, KnotCycles: true,
		RecoveryDrainRate: 1,
	}}
}

// Quick returns a scaled-down configuration (8-ary 2-cube, short windows)
// for tests and benchmarks.
func Quick() Config {
	c := Default()
	c.K = 8
	c.WarmupCycles = 1000
	c.MeasureCycles = 4000
	return c
}

// label returns the run label.
func (c Config) label() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("%s%d", c.Routing, c.VCs)
}

// Runner is a fully constructed simulation ready to step; most callers use
// Run, but examples and tests step Runners directly to observe state.
type Runner struct {
	Cfg      Config
	Topo     topology.Network
	Net      *network.Network
	Detector *detect.Detector
	Proc     *traffic.Process
	Workload workload.Driver // nil for open-loop traffic
	Faults   *fault.Injector // nil when no fault schedule is configured
	// Forensics replays deadlock formation from the network's resource log
	// (nil unless Cfg.ForensicsDepth > 0).
	Forensics *obs.FormationAnalyzer

	// res is the run's record: Detector.Stats, shared so StartMeasurement
	// clears it once for both.
	res        *stats.Result
	meanMsgLen float64 // the length distribution's mean, echoed by Finish
	rec        *obs.Recorder
	heat       *obs.Heatmap // HeatmapPath's accumulator, sampled with rec
	faultEvery int64        // fault-tick cadence (DetectEvery); 0 when no schedule
	// artifacts closes run-owned observability outputs (SpansPath /
	// HeatmapPath files); CloseArtifacts drains it.
	artifacts []func() error
	measuring bool
	sumAct    int64
	sumBlk    int64
	sumQue    int64
	sumFlt    int64
	samples   int64
}

// NewRunner validates the configuration and builds the simulation.
func NewRunner(c Config) (*Runner, error) {
	if c.MsgLen < 1 {
		return nil, fmt.Errorf("sim: MsgLen must be >= 1, got %d", c.MsgLen)
	}
	if c.Load < 0 {
		return nil, fmt.Errorf("sim: Load must be >= 0, got %g", c.Load)
	}
	var topo topology.Network
	var err error
	switch {
	case c.IrregularNodes > 0:
		topo, err = topology.NewIrregular(c.IrregularNodes, c.IrregularLinks, c.Seed)
	case c.Mesh:
		topo, err = topology.NewMesh(c.K, c.N)
	default:
		topo, err = topology.New(c.K, c.N, c.Bidirectional)
	}
	if err != nil {
		return nil, err
	}
	alg, err := routing.ByName(c.Routing)
	if err != nil {
		return nil, err
	}
	var artifacts []func() error
	tracer := c.Tracer
	var spans *trace.PerfettoWriter
	if c.SpansPath != "" {
		f, err := os.Create(expandRunPath(c.SpansPath, c))
		if err != nil {
			return nil, fmt.Errorf("sim: spans: %w", err)
		}
		spans = trace.NewPerfetto(f)
		artifacts = append(artifacts, func() error {
			werr := spans.Close()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			return werr
		})
		if c.TraceContext != "" {
			// Stamp the fleet span this run executes under, so the artifact
			// is joinable to the coordinator's fleet timeline.
			spans.TraceContext(c.TraceContext)
		}
		// Join the Perfetto writer into the fan-out without disturbing the
		// caller's tracer.
		if tracer != nil {
			tracer = trace.Multi{tracer, spans}
		} else {
			tracer = spans
		}
	}
	var heat *obs.Heatmap
	if c.HeatmapPath != "" {
		heat = &obs.Heatmap{}
		path := expandRunPath(c.HeatmapPath, c)
		artifacts = append(artifacts, func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("sim: heatmap: %w", err)
			}
			werr := heat.WriteCSV(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			return werr
		})
	}
	net, err := network.New(network.Params{
		Topo:              topo,
		VCs:               c.VCs,
		BufferDepth:       c.BufferDepth,
		Routing:           alg,
		RecoveryDrainRate: c.RecoveryDrainRate,
		CheckInvariants:   c.CheckInvariants,
		Tracer:            tracer,
	})
	if err != nil {
		return nil, err
	}
	if c.ProfileEngine {
		net.SetEngineStats(&network.EngineStats{})
	}
	pat, err := traffic.ByName(c.Traffic, topo, c.HotspotFrac)
	if err != nil {
		return nil, err
	}
	var dist traffic.LengthDist = traffic.Fixed(c.MsgLen)
	if c.ShortFrac > 0 {
		b := traffic.Bimodal{Short: c.MsgLenShort, Long: c.MsgLen, ShortFrac: c.ShortFrac}
		if err := b.Validate(); err != nil {
			return nil, err
		}
		dist = b
	}
	policy, err := detect.ParsePolicy(c.VictimPolicy)
	if err != nil {
		return nil, err
	}
	dcfg := detect.Config{
		Every:             c.DetectEvery,
		Policy:            policy,
		Recover:           c.Recover,
		CountKnotCycles:   c.KnotCycles,
		CycleCensus:       c.CycleCensus,
		MaxCycles:         c.MaxCycles,
		MaxWork:           c.MaxWork,
		KeepEvents:        c.KeepEvents,
		Seed:              c.Seed,
		TimeoutThresholds: c.TimeoutThresholds,
	}
	// The nil check must be on the concrete type: assigning a nil
	// *IncidentLog to the Observer interface would make it non-nil.
	if c.Incidents != nil {
		dcfg.Observer = c.Incidents
		dcfg.SnapshotDOT = c.IncidentDOT
	}
	if spans != nil {
		dcfg.OnPass = func(p detect.PassInfo) {
			spans.DetectorPass(p.Cycle, p.BuildNs, p.AnalyzeNs, p.Deadlocks, p.Gated)
		}
	}
	det, err := detect.New(net, dcfg)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		Cfg:        c,
		Topo:       topo,
		Net:        net,
		Detector:   det,
		Proc:       traffic.NewProcess(topo, pat, c.Load, dist, rng.New(c.Seed)),
		res:        det.Stats,
		meanMsgLen: dist.Mean(),
	}
	if c.Workload != "" {
		phases := c.WorkloadPhases
		if phases <= 0 {
			phases = 10
		}
		var drv workload.Driver
		switch c.Workload {
		case "stencil":
			drv, err = workload.NewStencil(topo, phases, c.MsgLen, c.ComputeDelay)
		case "allreduce":
			drv, err = workload.NewAllReduce(topo, phases, c.MsgLen, c.ComputeDelay)
		default:
			err = fmt.Errorf("sim: unknown workload %q (stencil|allreduce)", c.Workload)
		}
		if err != nil {
			return nil, err
		}
		r.Workload = drv
	}
	if len(c.FaultEvents) > 0 || c.FaultLinkMTTF > 0 {
		events := append([]fault.Event(nil), c.FaultEvents...)
		if c.FaultLinkMTTF > 0 {
			seed := c.FaultSeed
			if seed == 0 {
				seed = c.Seed
			}
			horizon := int64(c.WarmupCycles + c.MeasureCycles)
			events = append(events, fault.GenerateLinkFaults(topo, seed, c.FaultLinkMTTF, c.FaultRepair, horizon)...)
		}
		fault.Sort(events)
		inj, err := fault.NewInjector(net, events)
		if err != nil {
			return nil, err
		}
		r.Faults = inj
		r.faultEvery = int64(c.DetectEvery)
		if r.faultEvery <= 0 {
			r.faultEvery = 1
		}
		if c.Incidents != nil {
			c.Incidents.FaultContext = inj.ActiveFaults
		}
	}
	if c.ForensicsDepth > 0 {
		rl := network.NewResourceLog(c.ForensicsDepth)
		net.SetResourceLog(rl)
		r.Forensics = obs.NewFormationAnalyzer(net, rl)
		if c.Incidents != nil {
			c.Incidents.Formation = r.Forensics
		}
	}
	if c.MetricsEvery > 0 || c.MetricsLive != nil || heat != nil {
		r.rec = obs.NewRecorder(c.MetricsEvery)
	}
	r.heat = heat
	r.artifacts = artifacts
	net.OnDeliver = r.onDeliver
	return r, nil
}

func (r *Runner) onDeliver(m *message.Message) {
	if m.Status == message.Killed {
		// Fault casualties are not deliveries: they are accounted in the
		// network's Killed/Unroutable counters, folded in at Finish.
		return
	}
	if r.Workload != nil {
		r.Workload.Delivered(m)
	}
	if r.Cfg.Incidents != nil && m.Status == message.Recovered {
		r.Cfg.Incidents.RecoveryDone(m.ID, r.Net.Now())
	}
	if !r.measuring {
		return
	}
	r.res.Delivered++
	r.res.DeliveredFlits += int64(m.Len)
	if m.Status == message.Recovered {
		r.res.Recovered++
	} else {
		lat := m.DeliverTime - m.CreateTime
		r.res.SumLatency += lat
		r.res.LatencyN++
		r.res.Latency.Observe(lat)
	}
}

// StepCycle advances the simulation by one cycle: generate traffic (open- or
// closed-loop), step the network, run the detector if due, and sample
// occupancy statistics.
func (r *Runner) StepCycle() {
	inject := func(src, dst, length int) {
		r.Net.Inject(src, dst, length)
		if r.measuring {
			r.res.Generated++
			r.res.GeneratedFlits += int64(length)
		}
	}
	if r.Workload != nil {
		r.Workload.Tick(r.Net.Now()+1, func(src, dst, length int) *message.Message {
			m := r.Net.Inject(src, dst, length)
			if r.measuring {
				r.res.Generated++
				r.res.GeneratedFlits += int64(length)
			}
			return m
		})
	} else {
		r.Proc.Generate(inject)
	}
	r.Net.Step()
	if r.Faults != nil && r.Net.Now()%r.faultEvery == 0 {
		// Apply due fault events before the detector looks, so a pass on
		// the same cycle sees the post-fault wait-for graph (and the
		// resource-epoch bumps invalidate its change gate).
		r.Faults.Tick()
	}
	r.Detector.Tick()
	if r.rec != nil && r.Net.Now()%int64(r.rec.Every) == 0 {
		r.sampleMetrics()
	}
	if r.measuring {
		act := r.Net.ActiveCount()
		r.sumAct += int64(act)
		r.sumBlk += int64(r.Net.BlockedCount())
		r.sumQue += int64(r.Net.QueuedCount())
		r.sumFlt += r.Net.FlitsInNetwork()
		r.samples++
		if act > r.res.PeakActive {
			r.res.PeakActive = act
		}
	}
}

// sampleMetrics records one interval sample, mirroring it into the live
// view when one is attached. Called on the recorder cadence, never on the
// bare hot path.
func (r *Runner) sampleMetrics() {
	g := obs.Gauges{
		Cycle:        r.Net.Now(),
		Active:       r.Net.ActiveCount(),
		Blocked:      r.Net.BlockedCount(),
		Queued:       r.Net.QueuedCount(),
		Flits:        r.Net.FlitsInNetwork(),
		Delivered:    r.Net.DeliveredCount,
		Recovered:    r.Net.RecoveredCount,
		Generated:    r.Net.TotalInjected(),
		Deadlocks:    r.res.Deadlocks,
		Invocations:  r.res.Invocations,
		Gated:        r.res.GatedInvocations,
		FaultsActive: r.Net.FaultsActive(),
		MsgsKilled:   r.Net.KilledCount,
	}
	r.rec.Record(g)
	if r.Cfg.MetricsLive != nil {
		r.Cfg.MetricsLive.Store(g)
	}
	if r.heat != nil {
		r.heat.Sample(r.Net)
	}
}

// Run executes warmup then measurement and returns the result. Program-
// driven runs skip warmup and execute until the program completes (or the
// WarmupCycles+MeasureCycles safety cap).
func (r *Runner) Run() *stats.Result { return r.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation. The cycle loop polls ctx
// on the detector cadence (every DetectEvery cycles), so a cancelled context
// stops the run within one detector period; the loop itself stays free of
// per-cycle synchronization. On cancellation the run finalizes normally —
// statistics cover the cycles actually executed, metrics sinks are flushed —
// and the partial result is returned with Interrupted set.
func (r *Runner) RunContext(ctx context.Context) *stats.Result {
	done := ctx.Done() // nil for context.Background(): polling stays free
	every := r.Cfg.DetectEvery
	if every <= 0 {
		every = 1
	}
	cancelled := func(cycle int) bool {
		if done == nil || cycle%every != 0 {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if r.Workload != nil {
		r.StartMeasurement()
		limit := int64(r.Cfg.WarmupCycles + r.Cfg.MeasureCycles)
		for !r.Workload.Done() && r.Net.Now() < limit {
			r.StepCycle()
			if cancelled(int(r.Net.Now())) {
				r.res.Interrupted = true
				break
			}
		}
		r.Cfg.MeasureCycles = int(r.Net.Now())
		return r.Finish()
	}
	for i := 0; i < r.Cfg.WarmupCycles; i++ {
		r.StepCycle()
		if cancelled(i + 1) {
			r.res.Interrupted = true
			r.Cfg.MeasureCycles = 0
			return r.Finish()
		}
	}
	r.StartMeasurement()
	for i := 0; i < r.Cfg.MeasureCycles; i++ {
		r.StepCycle()
		if cancelled(i + 1) {
			r.res.Interrupted = true
			r.Cfg.MeasureCycles = i + 1
			return r.Finish()
		}
	}
	return r.Finish()
}

// StartMeasurement resets counters at the warmup boundary: one reset of the
// record the runner and the detector share.
func (r *Runner) StartMeasurement() {
	r.Detector.ResetStats()
	r.res.QueuedStart = r.Net.QueuedCount()
	r.measuring = true
}

// Close does nothing. Kept only for bench/; ROADMAP 1(a) deletes it.
func (r *Runner) Close() {}

// Finish completes the run's record and returns it; the Runner holds nothing
// that needs releasing, so a Runner abandoned without Finish is simply
// collected. The Result is detached: a copy that shares no memory with the
// Runner, its histograms sized to their samples, so a sweep holding
// thousands of Results holds ~2 KB each rather than each one's network,
// detector and wait-for-graph arenas.
func (r *Runner) Finish() *stats.Result {
	res := new(stats.Result)
	*res = *r.res
	res.Latency = detached(&r.res.Latency)
	res.DetectBuildTime = detached(&r.res.DetectBuildTime)
	res.DetectAnalyzeTime = detached(&r.res.DetectAnalyzeTime)
	res.Label, res.Load, res.Nodes = r.Cfg.label(), r.Cfg.Load, r.Topo.Nodes()
	res.MeanMsgLen, res.Seed = r.meanMsgLen, r.Cfg.Seed
	res.Cycles = int64(r.Cfg.MeasureCycles)
	if r.samples > 0 {
		res.MeanActive = float64(r.sumAct) / float64(r.samples)
		res.MeanBlocked = float64(r.sumBlk) / float64(r.samples)
		res.MeanQueued = float64(r.sumQue) / float64(r.samples)
		res.MeanFlits = float64(r.sumFlt) / float64(r.samples)
	}
	// A run is saturated when the offered load exceeds what the network
	// sustains: source queues grow across the measurement window. The
	// threshold (5% of offered messages, at least 8) tolerates pipeline
	// fill and burst noise on short windows.
	res.QueuedEnd = r.Net.QueuedCount()
	growth := int64(res.QueuedEnd - res.QueuedStart)
	threshold := res.Generated / 20
	if threshold < 8 {
		threshold = 8
	}
	res.Saturated = growth > threshold
	if r.Faults != nil {
		res.FaultEvents = r.Faults.Applied()
		res.FaultsActiveEnd = r.Faults.ActiveCount()
	}
	res.Killed = r.Net.KilledCount
	res.Unroutable = r.Net.UnroutableCount
	if r.rec != nil && r.Cfg.MetricsSink != nil {
		r.Cfg.MetricsSink.Run(obs.RunMeta{Label: res.Label, Seed: r.Cfg.Seed, Load: res.Load}, r.rec)
	}
	return res
}

// detached returns a copy of h that shares no bucket storage with it,
// trimmed to its last non-empty bucket.
func detached(h *stats.Histogram) stats.Histogram {
	var d stats.Histogram
	d.Merge(h)
	return d
}

// CloseArtifacts closes the run-owned observability outputs (the SpansPath
// Perfetto file and the HeatmapPath CSV), returning the first error. Run
// and RunContext call it; only callers that step a Runner manually with
// those paths configured need to call it themselves. Idempotent.
func (r *Runner) CloseArtifacts() error {
	var first error
	for _, close := range r.artifacts {
		if err := close(); err != nil && first == nil {
			first = err
		}
	}
	r.artifacts = nil
	return first
}

// expandRunPath substitutes a run-identifying stem for "*" in a per-run
// artifact path so sweep runs writing the same template do not clobber each
// other; labels are sanitized for path separators.
func expandRunPath(path string, c Config) string {
	if !strings.Contains(path, "*") {
		return path
	}
	stem := fmt.Sprintf("%s-s%d-l%g", strings.ReplaceAll(c.label(), "/", "-"), c.Seed, c.Load)
	return strings.ReplaceAll(path, "*", stem)
}

// Run builds and executes one simulation.
func Run(c Config) (*stats.Result, error) {
	return RunContext(context.Background(), c)
}

// RunContext builds and executes one simulation under ctx (see
// Runner.RunContext for the cancellation semantics). A failure to write a
// requested run-owned artifact (SpansPath/HeatmapPath) fails the run: the
// caller asked for the file.
func RunContext(ctx context.Context, c Config) (*stats.Result, error) {
	r, err := NewRunner(c)
	if err != nil {
		return nil, err
	}
	res := r.RunContext(ctx)
	if err := r.CloseArtifacts(); err != nil {
		return nil, err
	}
	return res, nil
}
