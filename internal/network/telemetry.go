package network

// Engine telemetry: per-shard × per-phase wall time for the cycle engine,
// the time workers spend parked at its barriers, and the mailbox transfers
// that cross a shard boundary. bench/ is its one reader (the
// network.phase_frac.*, stall_frac and xshard_transfers metrics).
//
// The stats attach to a Network via SetEngineStats; when attached, Step
// stamps time.Now around each of the four barrier-separated launches and the
// parallel driver also counts mailbox traffic between barriers, all through
// the nil-able probe below, so each engine has one driver. When detached
// (the default) the hot path pays nil checks and zero allocations.
//
// Determinism contract: the cross-shard count is exact and identical across
// runs of the same configuration; the nanosecond fields are wall-clock
// measurements and are therefore excluded from golden comparisons and the
// content-addressed cache key (ProfileEngine is a field of
// sim.Instrumentation, not sim.Spec).

import (
	"time"

	"flexsim/internal/message"
)

// EnginePhases is the number of barrier-separated launches per cycle:
// drain+inject, alloc+plan, arb+eject, apply+release, in that order.
const EnginePhases = 4

// EngineStats accumulates engine telemetry across Step calls. One instance
// belongs to one Network (SetEngineStats sizes it to the resolved shard
// count); it is read between cycles, never concurrently with Step.
type EngineStats struct {
	// Shards is the resolved worker count PhaseNs is sized for.
	Shards int

	// PhaseNs[shard][phase] is the accumulated kernel wall time of that
	// shard in that launch. In direct (1-shard) mode all time lands on
	// shard 0.
	PhaseNs [][EnginePhases]int64
	// WallNs[phase] accumulates the slowest shard's time per launch — the
	// barrier wall time the whole engine waits for.
	WallNs [EnginePhases]int64
	// IdleNs[phase] accumulates Σ_workers (slowest − worker) per launch:
	// total worker-time spent parked at the barrier. The idle fraction of
	// a launch is IdleNs / (Shards × WallNs). Zero in direct mode.
	IdleNs [EnginePhases]int64

	xshard int64 // mailbox transfers (requests plus grants) to another shard
}

// TotalWallNs returns the accumulated barrier wall time across launches.
func (es *EngineStats) TotalWallNs() int64 { return phaseTotal(es.WallNs) }

// TotalIdleNs returns the accumulated worker idle time across launches.
func (es *EngineStats) TotalIdleNs() int64 { return phaseTotal(es.IdleNs) }

func phaseTotal(ns [EnginePhases]int64) (t int64) {
	for _, v := range ns {
		t += v
	}
	return t
}

// CrossShardTransfers returns the total shard-crossing mailbox traffic:
// transfer requests and grants whose source and destination shards differ.
func (es *EngineStats) CrossShardTransfers() int64 { return es.xshard }

// The probe: every method below is a no-op on nil stats, so one driver per
// engine serves profiled and unprofiled runs. start stamps the beginning of
// a cycle or kernel. lap is the sequential engine's: it folds the time since
// the last stamp into a phase group — all of it on shard 0, barrier wall
// equal to the kernel time, no idle — and returns the next stamp.
func (es *EngineStats) start() time.Time {
	if es == nil {
		return time.Time{}
	}
	return time.Now()
}

func (es *EngineStats) lap(phase int, since time.Time) time.Time {
	if es == nil {
		return since
	}
	now := time.Now()
	ns := int64(now.Sub(since))
	es.PhaseNs[0][phase] += ns
	es.WallNs[phase] += ns
	return now
}

// since is a pool worker's half of the probe: the kernel's duration, for
// the coordinator to fold after the barrier.
func (es *EngineStats) since(t time.Time) int64 {
	if es == nil {
		return 0
	}
	return int64(time.Since(t))
}

// launched is the coordinator's half, called after each barrier: it folds
// the launch's worker durations — per-shard time, barrier wall (slowest) and
// idle (Σ slowest − worker) — and counts the mailbox entries bound for
// another shard while they are full: reqOut is planned by alloc+plan and
// drained by arb+eject, grantOut produced there and drained by
// apply+release.
func (es *EngineStats) launched(phase int, workers []*worker) {
	if es == nil {
		return
	}
	var slowest int64
	for _, w := range workers {
		d := w.phaseNs[phase]
		es.PhaseNs[w.id][phase] += d
		slowest = max(slowest, d)
	}
	es.WallNs[phase] += slowest
	for _, w := range workers {
		es.IdleNs[phase] += slowest - w.phaseNs[phase]
		var out [][]message.VC
		switch phase {
		case 1:
			out = w.reqOut
		case 2:
			out = w.grantOut
		}
		for dst, vcs := range out {
			if dst != int(w.id) {
				es.xshard += int64(len(vcs))
			}
		}
	}
}

// SetEngineStats attaches (or with nil detaches) engine telemetry. The
// stats are sized to the network's resolved shard count; Step profiles every
// cycle until they are detached.
func (n *Network) SetEngineStats(es *EngineStats) {
	if es != nil && len(es.PhaseNs) != n.shards {
		es.Shards = n.shards
		es.PhaseNs = make([][EnginePhases]int64, n.shards)
	}
	n.eng = es
}

// EngineStatsAttached returns the attached telemetry, or nil.
func (n *Network) EngineStatsAttached() *EngineStats { return n.eng }
