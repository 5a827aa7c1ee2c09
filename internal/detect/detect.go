// Package detect wires the CWG knot theory to the running network: it
// periodically snapshots the network's resource state into the message graph
// of the channel wait-for graph, identifies knots (true deadlocks),
// characterizes them, selects a victim from each deadlock set and triggers
// Disha-style flit-by-flit absorption, and counts the deadlock and
// cycle-census aggregates the paper reports into the run's stats.Result.
package detect

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
	"flexsim/internal/network"
	"flexsim/internal/rng"
	"flexsim/internal/stats"
)

// VictimPolicy selects the message to absorb from a deadlock set.
type VictimPolicy int8

const (
	// OldestBlocked picks the deadlock-set message blocked the longest
	// (closest to Disha's timeout-initiated recovery). Ties break to the
	// lowest message id.
	OldestBlocked VictimPolicy = iota
	// MostResources picks the message owning the most VCs, freeing the
	// most resources per recovery.
	MostResources
	// FewestResources picks the message owning the fewest VCs, losing
	// the least progress per recovery.
	FewestResources
	// RandomVictim picks uniformly (deterministically seeded).
	RandomVictim
)

// PolicyNames lists the accepted ParsePolicy names, indexed by VictimPolicy.
var PolicyNames = []string{"oldest", "most", "fewest", "random"}

// ParsePolicy maps a name to a VictimPolicy. Matching is case-insensitive
// and tolerates surrounding whitespace; the empty string selects the
// default (OldestBlocked). Unknown names error, listing the valid policies.
func ParsePolicy(name string) (VictimPolicy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return OldestBlocked, nil
	}
	if i := slices.Index(PolicyNames, key); i >= 0 {
		return VictimPolicy(i), nil
	}
	return 0, fmt.Errorf("detect: unknown victim policy %q (valid: %s)",
		name, strings.Join(PolicyNames, "|"))
}

// valid reports whether p names a policy.
func (p VictimPolicy) valid() bool { return p >= 0 && int(p) < len(PolicyNames) }

// String returns the policy name.
func (p VictimPolicy) String() string {
	if p.valid() {
		return PolicyNames[p]
	}
	return fmt.Sprintf("VictimPolicy(%d)", int8(p))
}

// Config tunes the detector.
type Config struct {
	// Every is the invocation period in cycles (the paper uses 50).
	Every int
	// Policy selects recovery victims.
	Policy VictimPolicy
	// Recover enables breaking detected deadlocks; disable only to
	// observe wedged networks.
	Recover bool
	// CountKnotCycles enables per-knot cycle density enumeration.
	CountKnotCycles bool
	// CycleCensus enables whole-graph cycle counting per invocation (the
	// paper's cycle curves).
	CycleCensus bool
	// MaxCycles/MaxWork cap the enumerations (0 = cwg defaults).
	MaxCycles int
	MaxWork   int
	// KeepEvents retains a full per-deadlock event log (memory-heavy on
	// deep-saturation runs; aggregates are always kept).
	KeepEvents bool
	// Seed drives RandomVictim.
	Seed uint64
	// TimeoutThresholds, when nonempty, evaluates timeout-based deadlock
	// approximation (à la Disha/compressionless routing) against the true
	// knot ground truth at each pass (see TimeoutCounts).
	TimeoutThresholds []int64
	// Observer, if non-nil, is notified of every detected deadlock after
	// victim selection but before recovery is initiated, so forensic
	// observers can replay the still-intact deadlocked state. The hook
	// is a single nil-guarded branch; a nil Observer costs nothing.
	Observer Observer
	// SnapshotDOT additionally renders each deadlock's knot subgraph in
	// Graphviz format into the Observation (post-mortem artifacts;
	// allocates, so leave off on perf-sensitive runs).
	SnapshotDOT bool
	// OnPass, if non-nil, receives a PassInfo for every invocation,
	// including gated ones (timeline exporters). Nil costs one branch.
	OnPass func(PassInfo)
}

// PassInfo summarizes one detector invocation for the OnPass hook.
type PassInfo struct {
	// Cycle is the invocation cycle.
	Cycle int64
	// BuildNs and AnalyzeNs are the measured wall-clock snapshot+build and
	// knot-analysis times (zero for gated passes, which do neither).
	BuildNs, AnalyzeNs int64
	// Deadlocks is the number of deadlocks found this pass.
	Deadlocks int
	// Gated reports a change-gated invocation that reused the previous
	// deadlock-free analysis.
	Gated bool
}

// Observation describes one detected deadlock as handed to an Observer.
type Observation struct {
	// Cycle is the detection cycle.
	Cycle int64
	// Deadlock is the characterized knot. It is only valid during the
	// ObserveDeadlock call: its backing arrays are reused by the next
	// detection pass, so implementations must copy what they keep.
	Deadlock *cwg.Deadlock
	// Victim is the message chosen for recovery (-1 when recovery is
	// disabled or no active candidate existed).
	Victim message.ID
	// Policy is the victim policy in force.
	Policy VictimPolicy
	// KnotDOT is the knot subgraph in Graphviz format (empty unless
	// Config.SnapshotDOT).
	KnotDOT string
}

// Observer receives deadlock observations (see Config.Observer).
// Implementations must be cheap and must not retain Observation.Deadlock.
type Observer interface {
	ObserveDeadlock(Observation)
}

// Event records one detected deadlock.
type Event struct {
	Cycle int64
	cwg.Deadlock
	Victim message.ID
}

// Work counts a detector's graph work: sums over deterministic passes, so
// they are identical per seed whatever the host or the binary's layout.
type Work struct {
	// Vertices and Arcs count the message graphs built, by graph passes
	// and census counts (a weighted arc counts once).
	Vertices, Arcs int64
	// TarjanVisits counts the vertices entered and arcs followed by the
	// SCC passes of knot finding and the census.
	TarjanVisits int64
	// CensusEdges and KnotEdges count Johnson's arc visits: counting the
	// census, and counting knot cycle density.
	CensusEdges, KnotEdges int64
}

// graphWork returns the work of building and analyzing g; its Johnson
// visits are the census's when census is set, else the knots'.
func graphWork(g *cwg.MsgGraph, census bool) Work {
	gw := g.Work()
	w := Work{Vertices: int64(g.NumVertices()), Arcs: int64(g.NumArcs()), TarjanVisits: gw.TarjanVisits}
	if census {
		w.CensusEdges = gw.JohnsonEdges
	} else {
		w.KnotEdges = gw.JohnsonEdges
	}
	return w
}

// add folds o into w.
func (w *Work) add(o Work) {
	w.Vertices += o.Vertices
	w.Arcs += o.Arcs
	w.TarjanVisits += o.TarjanVisits
	w.CensusEdges += o.CensusEdges
	w.KnotEdges += o.KnotEdges
}

// timingGrowTo pre-sizes the timing histograms: passes up to 1s land in
// pre-allocated buckets, keeping the detection hot path at 0 allocs/op.
const timingGrowTo = int64(time.Second)

// Detector performs true deadlock detection on a network.
type Detector struct {
	cfg Config
	net *network.Network
	r   *rng.Source

	// Stats is the run's record. The detector counts only its own block
	// into it (Deadlocks … MaxKnotCycles, the census, Invocations,
	// GatedInvocations, DetectBuildTime, DetectAnalyzeTime); a runner
	// counts the rest into the same record, which ResetStats clears in
	// place.
	Stats *stats.Result
	// Timeout holds the per-threshold approximation quality counters
	// (aligned with Config.TimeoutThresholds; empty when disabled).
	Timeout []TimeoutCounts
	Events  []Event
	// Work counts the graph work of the graph passes and census counts
	// since ResetStats (the census's lags until Wait, as its Stats do).
	Work Work

	// snap and snapVCs hold the latest Snapshot (snapshot.go).
	snap    []cwg.Msg
	snapVCs []message.VC

	// graph is the pass's message wait-for graph, its storage reused across
	// passes; graphPass, when set, answers graph passes instead (the
	// VC-graph oracle of the package's tests).
	graph     *cwg.MsgGraph
	graphPass func([]cwg.Msg, cwg.Options) cwg.Analysis
	// victims is selectVictim's candidate scratch.
	victims []*message.Message

	// Change-gating state: a pass may be skipped when the network's
	// resource epoch is unchanged since the last pass and that pass was
	// deadlock-free (lastClean). lastAnalysis replays that pass's result.
	gateValid    bool
	lastClean    bool
	lastEpoch    uint64
	lastAnalysis cwg.Analysis

	// census counts the cycle census beside the cycle (census.go); nil
	// until the first census pass.
	census *census

	// Knot-freedom proof state (proof.go): escaped stamps, per head VC, the
	// messages proved to escape in pass proofEpoch; pending holds the blocked
	// messages not yet proved, and after a pass those it left unproved (the
	// doomed ones). graphNext sends the next pass to the graph path without
	// trying the proof (Invalidate).
	escaped    []uint64
	proofEpoch uint64
	pending    []*message.Message
	graphNext  bool

	// Per-pass deadlock-set and dependent membership for compareTimeouts,
	// cleared and refilled each pass.
	inSet, dependent map[message.ID]bool
}

// Validate checks the configuration for values that would make the detector
// misbehave silently: a non-positive period (Tick would divide by zero or
// detect every cycle a caller never asked for), an unknown victim policy,
// negative enumeration caps, and non-positive timeout thresholds (a
// threshold of zero flags every blocked message on sight, which is never
// what the approximation study means).
func (cfg Config) Validate() error {
	if cfg.Every <= 0 {
		return fmt.Errorf("detect: Every must be a positive cycle period, got %d (the paper uses 50)", cfg.Every)
	}
	if !cfg.Policy.valid() {
		return fmt.Errorf("detect: unknown victim policy %d (valid: %s)",
			cfg.Policy, strings.Join(PolicyNames, "|"))
	}
	if cfg.MaxCycles < 0 {
		return fmt.Errorf("detect: MaxCycles must be >= 0 (0 means the cwg default), got %d", cfg.MaxCycles)
	}
	if cfg.MaxWork < 0 {
		return fmt.Errorf("detect: MaxWork must be >= 0 (0 means the cwg default), got %d", cfg.MaxWork)
	}
	for i, th := range cfg.TimeoutThresholds {
		if th <= 0 {
			return fmt.Errorf("detect: TimeoutThresholds[%d] = %d; thresholds are blocked-duration cutoffs in cycles and must be >= 1", i, th)
		}
	}
	return nil
}

// New builds a detector for net, rejecting invalid configurations (see
// Config.Validate). Recover must be set explicitly.
func New(net *network.Network, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, net: net, r: rng.New(cfg.Seed ^ 0xdeadbeefcafe), Stats: new(stats.Result)}
	d.ResetStats()
	return d, nil
}

// ResetStats clears the whole Stats record in place, the timeout counters
// and the event log (the warmup/measurement boundary), and drops the cycle
// census in flight with the rest of the warm-up's passes. The timing
// histograms keep their bucket storage, zeroed, pre-grown once so observing
// a pass stays allocation-free.
func (d *Detector) ResetStats() {
	d.joinCensus(false)
	build, analyze := d.Stats.DetectBuildTime, d.Stats.DetectAnalyzeTime
	build.Reset()
	analyze.Reset()
	build.Grow(timingGrowTo)
	analyze.Grow(timingGrowTo)
	*d.Stats = stats.Result{DetectBuildTime: build, DetectAnalyzeTime: analyze}
	d.Work = Work{}
	d.Timeout = nil
	d.Events = d.Events[:0]
}

// Tick runs detection if the network's clock has reached an invocation
// point. Call once per cycle after network.Step.
func (d *Detector) Tick() {
	if d.net.Now()%int64(d.cfg.Every) == 0 {
		d.DetectNow()
	}
}

// Invalidate makes the next DetectNow perform a full pass: it is not gated
// whatever the network's resource epoch, and it snapshots, builds and
// analyzes the CWG without first trying the knot-freedom proof (benchmarks
// of the graph path, ablations, the model checker).
func (d *Detector) Invalidate() { d.gateValid, d.graphNext = false, true }

// gateable reports whether change-gating preserves this configuration's
// semantics: the cycle census samples per-pass occupancy and the timeout
// comparison depends on blocked durations, so both must observe every pass.
func (d *Detector) gateable() bool {
	return !d.cfg.CycleCensus && len(d.cfg.TimeoutThresholds) == 0
}

// DetectNow performs one detection pass: build the message wait-for graph,
// find and classify knots, record statistics, and (if enabled) absorb one
// victim per knot. It returns the analysis.
//
// When the network's resource epoch is unchanged since the last pass and
// that pass found no deadlock, the CWG is provably identical, so the pass
// is skipped and the previous (deadlock-free) analysis returned;
// Stats.GatedInvocations counts such invocations.
//
// Otherwise the pass first tries to prove the graph knot-free without
// building it (proof.go). A proved pass returns the analysis the graph path
// would, an Analysis holding only BlockedMessages, and counts as a clean full
// pass: it builds nothing and its AnalyzeNs is the proof's time.
//
// With the cycle census on, the pass first starts its census on a copy of
// the snapshot (census.go) and counts the copy's time into its BuildNs; the
// census fields of Stats lag the latest passes until Wait.
func (d *Detector) DetectNow() cwg.Analysis {
	epoch := d.net.ResourceEpoch()
	if d.gateValid && d.lastClean && epoch == d.lastEpoch && d.gateable() {
		d.Stats.Invocations++
		d.Stats.GatedInvocations++
		if d.cfg.OnPass != nil {
			d.cfg.OnPass(PassInfo{Cycle: d.net.Now(), Gated: true})
		}
		return d.lastAnalysis
	}
	var censusNs int64
	var snap []cwg.Msg
	if d.cfg.CycleCensus {
		t0 := time.Now()
		snap = d.startCensus()
		censusNs = int64(time.Since(t0))
	}
	an, snap, buildNs, analyzeNs := d.analyze(snap)
	buildNs += censusNs
	d.Stats.DetectBuildTime.Observe(buildNs)
	d.Stats.DetectAnalyzeTime.Observe(analyzeNs)
	d.Stats.Invocations++
	// Evaluate timeout approximation against ground truth before recovery
	// mutates blocked state.
	d.compareTimeouts(&an)
	var dot *cwg.Graph
	for i := range an.Deadlocks {
		dl := &an.Deadlocks[i]
		d.record(dl)
		var victim message.ID = -1
		var vm *message.Message
		if d.cfg.Recover {
			if vm = d.selectVictim(dl); vm != nil {
				victim = vm.ID
			}
		}
		if d.cfg.Observer != nil {
			// Observed before Absorb mutates the victim, so forensic
			// observers replay from the intact deadlocked state.
			obs := Observation{
				Cycle:    d.net.Now(),
				Deadlock: dl,
				Victim:   victim,
				Policy:   d.cfg.Policy,
			}
			if d.cfg.SnapshotDOT {
				if dot == nil {
					dot = cwg.Build(snap) // SnapshotDOT only: DOT draws the VC graph
				}
				obs.KnotDOT = dot.KnotDOT(dl, d.net.VCString)
			}
			d.cfg.Observer.ObserveDeadlock(obs)
		}
		if vm != nil {
			d.net.Absorb(vm)
		}
		if d.cfg.KeepEvents {
			d.Events = append(d.Events, Event{Cycle: d.net.Now(), Deadlock: *dl, Victim: victim})
		}
	}
	d.lastClean = len(an.Deadlocks) == 0
	d.lastEpoch = epoch
	d.gateValid = true
	if d.lastClean {
		d.lastAnalysis = an
	}
	if d.cfg.OnPass != nil {
		d.cfg.OnPass(PassInfo{Cycle: d.net.Now(), BuildNs: buildNs,
			AnalyzeNs: analyzeNs, Deadlocks: len(an.Deadlocks)})
	}
	return an
}

// analyze answers one pass: by the knot-freedom proof when it holds and
// Invalidate did not ask for the graph, else by building and analyzing the
// message graph of snap, the census copy a census pass took, or else of a
// Snapshot, which it returns. A failed proof's time counts into the graph
// path's analyzeNs.
func (d *Detector) analyze(snap []cwg.Msg) (an cwg.Analysis, graphSnap []cwg.Msg, buildNs, analyzeNs int64) {
	tryProof := !d.graphNext
	d.graphNext = false
	t0 := time.Now()
	if tryProof {
		if blocked, ok := d.proveKnotFree(); ok {
			return cwg.Analysis{BlockedMessages: blocked}, nil, 0, int64(time.Since(t0))
		}
	}
	opts := cwg.Options{
		CountKnotCycles: d.cfg.CountKnotCycles,
		MaxCycles:       d.cfg.MaxCycles,
		MaxWork:         d.cfg.MaxWork,
	}
	tb := time.Now()
	if snap == nil {
		snap = d.Snapshot()
	}
	if d.graphPass != nil {
		return d.graphPass(snap, opts), snap, 0, int64(tb.Sub(t0)) + int64(time.Since(tb))
	}
	if d.graph == nil {
		d.graph = cwg.NewMsgGraph(d.net.TotalVCs())
	}
	g := d.graph.Build(snap)
	t1 := time.Now()
	an = g.Analyze(opts)
	d.Work.add(graphWork(g, false))
	return an, snap, int64(t1.Sub(tb)), int64(tb.Sub(t0)) + int64(time.Since(t1))
}

// record folds one deadlock into the aggregates.
func (d *Detector) record(dl *cwg.Deadlock) {
	d.Stats.Deadlocks++
	if dl.Kind == cwg.SingleCycle {
		d.Stats.SingleCycle++
	} else {
		d.Stats.MultiCycle++
	}
	d.Stats.SumDeadlockSet += int64(len(dl.DeadlockSet))
	d.Stats.SumResourceSet += int64(len(dl.ResourceSet))
	d.Stats.SumKnotVCs += int64(len(dl.KnotVCs))
	d.Stats.SumKnotCycles += int64(dl.KnotCycles)
	d.Stats.SumDependent += int64(len(dl.Dependent))
	if len(dl.DeadlockSet) > d.Stats.MaxDeadlockSet {
		d.Stats.MaxDeadlockSet = len(dl.DeadlockSet)
	}
	if len(dl.ResourceSet) > d.Stats.MaxResourceSet {
		d.Stats.MaxResourceSet = len(dl.ResourceSet)
	}
	if dl.KnotCycles > d.Stats.MaxKnotCycles {
		d.Stats.MaxKnotCycles = dl.KnotCycles
	}
}

// selectVictim applies the victim policy over the deadlock set's active
// members. It resolves their ids by binary search over the ID-sorted
// ActiveMessages view, which the pass's Snapshot refreshed and Absorb does
// not change.
func (d *Detector) selectVictim(dl *cwg.Deadlock) *message.Message {
	active := d.net.ActiveMessages()
	cands := d.victims[:0]
	for _, id := range dl.DeadlockSet {
		i, ok := slices.BinarySearchFunc(active, id, func(m *message.Message, id message.ID) int {
			return cmp.Compare(m.ID, id)
		})
		if ok && active[i].Status == message.Active {
			cands = append(cands, active[i])
		}
	}
	d.victims = cands
	if len(cands) == 0 {
		return nil
	}
	if d.cfg.Policy == RandomVictim {
		return cands[d.r.Intn(len(cands))]
	}
	best := cands[0]
	for _, m := range cands[1:] {
		if d.cfg.Policy.prefers(m, best) {
			best = m
		}
	}
	return best
}

// prefers reports whether policy p (not RandomVictim) picks m over best.
func (p VictimPolicy) prefers(m, best *message.Message) bool {
	switch p {
	case MostResources:
		return m.OwnedCount() > best.OwnedCount()
	case FewestResources:
		return m.OwnedCount() < best.OwnedCount()
	default: // OldestBlocked
		return m.BlockedSince < best.BlockedSince ||
			(m.BlockedSince == best.BlockedSince && m.ID < best.ID)
	}
}
