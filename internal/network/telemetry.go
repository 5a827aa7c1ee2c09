package network

// Engine telemetry: per-shard × per-phase wall-time accounting for the
// parallel cycle engine, barrier-stall/imbalance measurement, cross-shard
// mailbox traffic matrices and effect-buffer/merge cost counters.
//
// The stats attach to a Network via SetEngineStats; when attached, Step
// stamps time.Now around each of the four barrier-separated launches and the
// parallel driver also counts mailbox/effect traffic between barriers, all
// through the nil-able probe below, so each engine has one driver. When
// detached (the default) the hot path pays nil checks and zero allocations.
//
// Determinism contract: every *count* in EngineStats (mailbox matrices,
// effect totals, cycles) is exact and identical across runs of the same
// configuration; the nanosecond fields are wall-clock measurements and are
// therefore excluded from golden comparisons and the content-addressed
// cache key (ProfileEngine is a field of sim.Instrumentation, not sim.Spec).

import (
	"slices"
	"time"
)

// EnginePhases is the number of barrier-separated launches per cycle.
const EnginePhases = 4

// EnginePhaseNames names the launches, in execution order. Index matches
// the phase dimension of EngineStats.PhaseNs.
var EnginePhaseNames = [EnginePhases]string{
	"drain+inject",
	"alloc+plan",
	"arb+eject",
	"apply+release",
}

// EngineStats accumulates engine telemetry across Step calls. One instance
// belongs to one Network (SetEngineStats sizes it to the resolved shard
// count); it is read between cycles, never concurrently with Step.
type EngineStats struct {
	// Shards is the resolved worker count the matrices are sized for.
	Shards int
	// Cycles counts profiled Step calls.
	Cycles int64

	// PhaseNs[shard][phase] is the accumulated kernel wall time of that
	// shard in that launch. In direct (1-shard) mode all time lands on
	// shard 0.
	PhaseNs [][EnginePhases]int64
	// WallNs[phase] accumulates the slowest shard's time per launch — the
	// barrier wall time the whole engine waits for.
	WallNs [EnginePhases]int64
	// StallNs[phase] accumulates slowest-minus-median shard time per
	// launch: the imbalance cost a perfectly balanced partition would
	// avoid. Zero in direct mode.
	StallNs [EnginePhases]int64
	// IdleNs[phase] accumulates Σ_workers (slowest − worker) per launch:
	// total worker-time spent parked at the barrier. The idle fraction of
	// a launch is IdleNs / (Shards × WallNs).
	IdleNs [EnginePhases]int64

	// ReqTransfers[src*Shards+dst] counts transfer requests planned by
	// shard src for a channel owned by shard dst (the reqOut mailboxes);
	// GrantTransfers counts arbitration grants routed from the channel
	// owner src to the message owner dst (the grantOut mailboxes). Both
	// are exact and deterministic. The Req diagonal is always zero (local
	// requests go straight into the request tables); the Grant diagonal
	// counts same-shard grants, which still ride the mailbox.
	ReqTransfers   []int64
	GrantTransfers []int64

	// MsgEffects / NodeEffects count buffered externally visible effects
	// merged by the coordinator (zero unless a tracer, resource log or
	// delivery hook is attached); MergeNs is the coordinator wall time
	// spent merging them and absorbing injections.
	MsgEffects  int64
	NodeEffects int64
	MergeNs     int64

	durs []int64 // per-launch scratch: worker durations, reused
}

// SizeTo sizes the per-shard dimensions for the given worker count,
// preserving accumulated totals if the count is unchanged.
func (es *EngineStats) SizeTo(shards int) {
	if shards < 1 {
		shards = 1
	}
	if es.Shards == shards && es.PhaseNs != nil {
		return
	}
	es.Shards = shards
	es.PhaseNs = make([][EnginePhases]int64, shards)
	es.ReqTransfers = make([]int64, shards*shards)
	es.GrantTransfers = make([]int64, shards*shards)
	es.durs = make([]int64, 0, shards)
}

// Req returns the accumulated cross-shard transfer requests from shard src
// to shard dst.
func (es *EngineStats) Req(src, dst int) int64 { return es.ReqTransfers[src*es.Shards+dst] }

// Grant returns the accumulated cross-shard grants from shard src to dst.
func (es *EngineStats) Grant(src, dst int) int64 { return es.GrantTransfers[src*es.Shards+dst] }

// BusyNs returns the total kernel time across all shards and phases.
func (es *EngineStats) BusyNs() int64 {
	var t int64
	for i := range es.PhaseNs {
		for _, ns := range es.PhaseNs[i] {
			t += ns
		}
	}
	return t
}

// ShardBusyNs returns shard s's total kernel time across phases.
func (es *EngineStats) ShardBusyNs(s int) int64 {
	var t int64
	for _, ns := range es.PhaseNs[s] {
		t += ns
	}
	return t
}

// TotalWallNs returns the accumulated barrier wall time across launches.
func (es *EngineStats) TotalWallNs() int64 {
	var t int64
	for _, ns := range es.WallNs {
		t += ns
	}
	return t
}

// TotalStallNs returns the accumulated slowest-minus-median stall across
// launches.
func (es *EngineStats) TotalStallNs() int64 {
	var t int64
	for _, ns := range es.StallNs {
		t += ns
	}
	return t
}

// TotalIdleNs returns the accumulated worker idle time across launches.
func (es *EngineStats) TotalIdleNs() int64 {
	var t int64
	for _, ns := range es.IdleNs {
		t += ns
	}
	return t
}

// CrossShardTransfers returns the total shard-crossing mailbox traffic
// (requests plus grants over all src != dst pairs).
func (es *EngineStats) CrossShardTransfers() int64 {
	var t int64
	s := es.Shards
	for i, c := range es.ReqTransfers {
		if i/s != i%s {
			t += c
		}
	}
	for i, c := range es.GrantTransfers {
		if i/s != i%s {
			t += c
		}
	}
	return t
}

// recordLaunch folds the workers' measured durations for one launch:
// per-shard accumulation, barrier wall (slowest), stall (slowest − median)
// and idle (Σ slowest − worker). Coordinator goroutine only, after the
// barrier.
func (es *EngineStats) recordLaunch(phase int, workers []*worker) {
	durs := es.durs[:0]
	var max int64
	for _, w := range workers {
		d := w.phaseNs[phase]
		durs = append(durs, d)
		es.PhaseNs[w.id][phase] += d
		if d > max {
			max = d
		}
	}
	es.durs = durs
	es.WallNs[phase] += max
	for _, d := range durs {
		es.IdleNs[phase] += max - d
	}
	slices.Sort(durs)
	es.StallNs[phase] += max - durs[len(durs)/2]
}

// The probe: every method below is a no-op on nil stats, so one driver per
// engine serves profiled and unprofiled runs. start stamps the beginning of
// a cycle or kernel. lap is the sequential engine's: it folds the time since
// the last stamp into a phase group — all of it on shard 0, barrier wall
// equal to the kernel time, no stall or idle — and returns the next stamp.
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
// the launch's worker durations, tallies the mailboxes and effect buffers
// while they are full — reqOut is planned by alloc+plan and drained by
// arb+eject, grantOut produced there and drained by apply+release, and a
// buffer no kernel of this launch wrote is empty — and returns the stamp
// merged charges the coordinator's merge/absorb time from.
func (es *EngineStats) launched(phase int, workers []*worker) time.Time {
	if es == nil {
		return time.Time{}
	}
	es.recordLaunch(phase, workers)
	for _, w := range workers {
		switch row := int(w.id) * es.Shards; phase {
		case 1:
			for dst, out := range w.reqOut {
				es.ReqTransfers[row+dst] += int64(len(out))
			}
		case 2:
			for dst, out := range w.grantOut {
				es.GrantTransfers[row+dst] += int64(len(out))
			}
		}
		es.MsgEffects += int64(len(w.fxMsg))
		es.NodeEffects += int64(len(w.fxNode))
	}
	return time.Now()
}

// merged charges the coordinator's time since launched's stamp to MergeNs.
func (es *EngineStats) merged(since time.Time) {
	if es != nil {
		es.MergeNs += int64(time.Since(since))
	}
}

// SetEngineStats attaches (or with nil detaches) engine telemetry. The
// stats are sized to the network's resolved shard count; Step profiles every
// cycle until they are detached.
func (n *Network) SetEngineStats(es *EngineStats) {
	if es != nil {
		es.SizeTo(n.shards)
	}
	n.eng = es
}

// EngineStatsAttached returns the attached telemetry, or nil.
func (n *Network) EngineStatsAttached() *EngineStats { return n.eng }
