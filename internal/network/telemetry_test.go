package network

import (
	"testing"

	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// smallNet is a 4-ary 2-cube with two VCs and 2-flit buffers under DOR.
func smallNet(t *testing.T) *Network {
	return mustNet(t, topology.MustNew(4, 2, true), 2, 2, routing.DOR{})
}

// driveTelemetry injects a deterministic all-to-far pattern and steps the
// network, returning the attached stats.
func driveTelemetry(t *testing.T, cycles int) *EngineStats {
	t.Helper()
	n := smallNet(t)
	es := &EngineStats{}
	n.SetEngineStats(es)
	nodes := n.Topology().Nodes()
	for c := 0; c < cycles; c++ {
		if c%4 == 0 {
			for src := 0; src < nodes; src++ {
				n.Inject(src, (src+nodes/2)%nodes, 8)
			}
		}
		n.Step()
	}
	return es
}

// TestEngineStatsSequential: every phase group accumulates time, and the
// kept-for-bench readings are those of one engine with no barrier.
func TestEngineStatsSequential(t *testing.T) {
	es := driveTelemetry(t, 100)
	for ph, ns := range es.PhaseNs[0] {
		if ns <= 0 {
			t.Errorf("phase %d accumulated %d ns; want > 0", ph, ns)
		}
	}
	if es.TotalWallNs() <= 0 {
		t.Errorf("TotalWallNs = %d, want > 0", es.TotalWallNs())
	}
	if es.Shards != 1 || es.TotalIdleNs() != 0 || es.CrossShardTransfers() != 0 {
		t.Errorf("Shards %d, idle %d, cross-shard %d; want 1, 0, 0",
			es.Shards, es.TotalIdleNs(), es.CrossShardTransfers())
	}
}

// TestEngineStatsResultInvariance: attaching telemetry must not change
// simulation results — same deliveries, same flit counts, detached run
// as the baseline.
func TestEngineStatsResultInvariance(t *testing.T) {
	run := func(attach bool) (int64, int64) {
		n := smallNet(t)
		if attach {
			n.SetEngineStats(&EngineStats{})
		}
		nodes := n.Topology().Nodes()
		for c := 0; c < 300; c++ {
			if c%2 == 0 {
				for src := 0; src < nodes; src += 2 {
					n.Inject(src, (src+7)%nodes, 8)
				}
			}
			n.Step()
		}
		return n.DeliveredCount, n.DeliveredFlits
	}
	d0, f0 := run(false)
	d1, f1 := run(true)
	if d0 != d1 || f0 != f1 {
		t.Errorf("telemetry changed results: delivered %d/%d flits %d/%d", d0, d1, f0, f1)
	}
	if d0 == 0 {
		t.Error("baseline run delivered nothing; test is vacuous")
	}
}
