package network

import "testing"

// driveTelemetry injects a deterministic all-to-far pattern and steps the
// network, returning the attached stats.
func driveTelemetry(t *testing.T, shards, cycles int) *EngineStats {
	t.Helper()
	n := newShardedNet(t, shards)
	t.Cleanup(n.Close)
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

// checkPhaseTime: every launch accumulated kernel time and barrier wall.
func checkPhaseTime(t *testing.T, es *EngineStats) {
	t.Helper()
	for ph := 0; ph < EnginePhases; ph++ {
		var busy int64
		for s := range es.PhaseNs {
			busy += es.PhaseNs[s][ph]
		}
		if busy <= 0 || es.WallNs[ph] <= 0 {
			t.Errorf("phase %d accumulated busy %d, wall %d; want both > 0", ph, busy, es.WallNs[ph])
		}
	}
}

func TestEngineStatsParallel(t *testing.T) {
	const shards = 4
	es := driveTelemetry(t, shards, 200)
	if es.Shards != shards || len(es.PhaseNs) != shards {
		t.Fatalf("Shards = %d, PhaseNs rows = %d, want %d", es.Shards, len(es.PhaseNs), shards)
	}
	checkPhaseTime(t, es)
	if es.TotalIdleNs() <= 0 {
		t.Error("expected workers parked at the barrier on a 4-shard run")
	}
	// Uniform all-to-far traffic on 4 shards must cross shard boundaries.
	if es.CrossShardTransfers() == 0 {
		t.Error("expected cross-shard mailbox traffic")
	}
}

func TestEngineStatsSequential(t *testing.T) {
	es := driveTelemetry(t, 1, 100)
	if es.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", es.Shards)
	}
	checkPhaseTime(t, es)
	if es.TotalIdleNs() != 0 {
		t.Error("direct mode has no barriers: idle must be zero")
	}
	if es.CrossShardTransfers() != 0 {
		t.Error("direct mode has no mailboxes: cross-shard traffic must be zero")
	}
}

// TestEngineStatsCountsDeterministic pins the determinism contract: the
// cross-shard count is exact and identical across identical runs — only the
// nanosecond fields vary.
func TestEngineStatsCountsDeterministic(t *testing.T) {
	a, b := driveTelemetry(t, 4, 150), driveTelemetry(t, 4, 150)
	if a.CrossShardTransfers() != b.CrossShardTransfers() {
		t.Errorf("cross-shard count diverged: %d vs %d", a.CrossShardTransfers(), b.CrossShardTransfers())
	}
	if a.CrossShardTransfers() == 0 {
		t.Error("test is vacuous: no cross-shard traffic")
	}
}

// TestEngineStatsResultInvariance: attaching telemetry must not change
// simulation results — same deliveries, same flit counts, detached run
// as the baseline.
func TestEngineStatsResultInvariance(t *testing.T) {
	run := func(attach bool) (int64, int64) {
		n := newShardedNet(t, 3)
		defer n.Close()
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
