package network

// Engine telemetry: the cycle engine's wall time per phase group. bench/ is
// its one reader (the network.phase_frac.* metrics).
//
// The stats attach to a Network via SetEngineStats; when attached, Step
// stamps time.Now around each of its four phase groups through the nil-able
// probe below, so profiled and unprofiled runs share one driver. When
// detached (the default) the hot path pays nil checks and zero allocations.
//
// The nanosecond fields are wall-clock measurements and are therefore
// excluded from golden comparisons and the content-addressed cache key
// (ProfileEngine is a field of sim.Instrumentation, not sim.Spec).

import "time"

// EnginePhases is the number of timed phase groups per cycle:
// drain+inject, alloc+plan, arb+eject, apply+release, in that order.
const EnginePhases = 4

// EngineStats accumulates engine telemetry across Step calls. One instance
// belongs to one Network; it is read between cycles, never concurrently
// with Step.
type EngineStats struct {
	// PhaseNs[0][phase] is the accumulated wall time of that phase group.
	// It has one row, the shape bench/ reads.
	PhaseNs [1][EnginePhases]int64

	Shards int // reads 1; kept only for bench/; ROADMAP 1(a) deletes it
}

// TotalWallNs returns the accumulated wall time across phase groups.
func (es *EngineStats) TotalWallNs() (t int64) {
	for _, v := range es.PhaseNs[0] {
		t += v
	}
	return t
}

// TotalIdleNs reads 0: one goroutine steps the cycle and never waits at a
// barrier. Kept only for bench/; ROADMAP 1(a) deletes it.
func (es *EngineStats) TotalIdleNs() int64 { return 0 }

// CrossShardTransfers reads 0: there are no shards to cross. Kept only for
// bench/; ROADMAP 1(a) deletes it.
func (es *EngineStats) CrossShardTransfers() int64 { return 0 }

// The probe: both methods are no-ops on nil stats. start stamps the
// beginning of a cycle; lap folds the time since the last stamp into a
// phase group and returns the next stamp.
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
	es.PhaseNs[0][phase] += int64(now.Sub(since))
	return now
}

// SetEngineStats attaches (or with nil detaches) engine telemetry; Step
// profiles every cycle until it is detached.
func (n *Network) SetEngineStats(es *EngineStats) {
	if es != nil {
		es.Shards = 1 // kept only for bench/; ROADMAP 1(a) deletes it
	}
	n.eng = es
}

// EngineStatsAttached returns the attached telemetry, or nil.
func (n *Network) EngineStatsAttached() *EngineStats { return n.eng }
