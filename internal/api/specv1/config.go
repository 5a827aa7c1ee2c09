package specv1

import (
	"flexsim/internal/fault"
	"flexsim/internal/sim"
)

// PointConfig is the wire form of one simulation point: sim.Spec — the
// fields that participate in the content-addressed cache key — with explicit
// snake_case JSON names. sim.Instrumentation (sinks, tracers, shard counts,
// artifact paths) deliberately has no wire form: an execution service
// chooses those per process, not per request, so two clients submitting the
// same physics always hit the same cache entry.
//
// FromSim and ToSim are Go struct conversions, which ignore tags but demand
// the same field names and types in the same order: a field added to
// sim.Spec and not here (or the reverse) does not compile, so no semantic
// field can silently fail to travel. It is a second struct and not an alias
// of sim.Spec so that the v1 wire names live in this package, beside the
// decoders and goldens that pin them, and sim stays free of wire concerns.
type PointConfig struct {
	// Topology.
	K              int  `json:"k"`
	N              int  `json:"n"`
	Bidirectional  bool `json:"bidirectional"`
	Mesh           bool `json:"mesh,omitempty"`
	IrregularNodes int  `json:"irregular_nodes,omitempty"`
	IrregularLinks int  `json:"irregular_links,omitempty"`

	// Router resources.
	VCs         int     `json:"vcs"`
	BufferDepth int     `json:"buffer_depth"`
	MsgLen      int     `json:"msg_len"`
	MsgLenShort int     `json:"msg_len_short,omitempty"`
	ShortFrac   float64 `json:"short_frac,omitempty"`

	// Routing and traffic.
	Routing     string  `json:"routing"`
	Traffic     string  `json:"traffic"`
	HotspotFrac float64 `json:"hotspot_frac,omitempty"`
	Load        float64 `json:"load"`

	// Program-driven workload (replaces open-loop traffic when set).
	Workload       string `json:"workload,omitempty"`
	WorkloadPhases int    `json:"workload_phases,omitempty"`
	ComputeDelay   int    `json:"compute_delay,omitempty"`

	// Run control.
	Seed          uint64 `json:"seed"`
	WarmupCycles  int    `json:"warmup_cycles"`
	MeasureCycles int    `json:"measure_cycles"`

	// Fault injection.
	FaultSeed     uint64        `json:"fault_seed,omitempty"`
	FaultLinkMTTF int           `json:"fault_link_mttf,omitempty"`
	FaultRepair   int           `json:"fault_repair,omitempty"`
	FaultEvents   []fault.Event `json:"fault_events,omitempty"`

	// Deadlock detection and recovery.
	DetectEvery       int     `json:"detect_every"`
	VictimPolicy      string  `json:"victim_policy"`
	Recover           bool    `json:"recover"`
	KnotCycles        bool    `json:"knot_cycles,omitempty"`
	CycleCensus       bool    `json:"cycle_census,omitempty"`
	MaxCycles         int     `json:"max_cycles,omitempty"`
	MaxWork           int     `json:"max_work,omitempty"`
	RecoveryDrainRate int     `json:"recovery_drain_rate,omitempty"`
	KeepEvents        bool    `json:"keep_events,omitempty"`
	TimeoutThresholds []int64 `json:"timeout_thresholds,omitempty"`

	// Validation.
	CheckInvariants bool `json:"check_invariants,omitempty"`

	// Label for result tables; defaults to "<routing><vcs>".
	Label string `json:"label,omitempty"`
}

// FromSim captures a configuration's Spec in the wire form; its
// Instrumentation has no wire equivalent and is dropped.
func FromSim(c sim.Config) PointConfig { return PointConfig(c.Spec) }

// ToSim expands the wire form into a runnable simulation configuration with
// zero Instrumentation; the executing process attaches its own.
func (p PointConfig) ToSim() sim.Config { return sim.Config{Spec: sim.Spec(p)} }
