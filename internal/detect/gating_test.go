package detect

import (
	"testing"

	"flexsim/internal/network"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// quietNet builds a network that has carried traffic to completion: it holds
// no messages, so detection finds nothing and the resource epoch is at rest.
func quietNet(t *testing.T) *network.Network {
	t.Helper()
	topo := topology.MustNew(4, 1, true)
	n, err := network.New(network.Params{
		Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.DOR{},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Inject(0, 2, 4)
	n.Inject(1, 3, 4)
	for i := 0; i < 60; i++ {
		n.Step()
	}
	if n.ActiveCount() != 0 || n.QueuedCount() != 0 {
		t.Fatalf("network not drained: %d active, %d queued", n.ActiveCount(), n.QueuedCount())
	}
	return n
}

func TestGatedPassSkipsRebuild(t *testing.T) {
	n := quietNet(t)
	d := mustNew(t, n, Config{Every: 50, Recover: true, CountKnotCycles: true})

	an := d.DetectNow()
	if len(an.Deadlocks) != 0 {
		t.Fatalf("quiet network reported deadlocks: %+v", an.Deadlocks)
	}
	if d.Stats.GatedInvocations != 0 {
		t.Fatalf("first pass gated: %+v", d.Stats)
	}

	// Nothing changed: the next pass must be gated and report the same
	// (empty) analysis.
	an2 := d.DetectNow()
	if d.Stats.Invocations != 2 || d.Stats.GatedInvocations != 1 {
		t.Fatalf("expected 1 gated of 2 invocations, got %+v", d.Stats)
	}
	if len(an2.Deadlocks) != 0 || an2.BlockedMessages != an.BlockedMessages {
		t.Fatalf("gated analysis differs: %+v vs %+v", an2, an)
	}

	// Stepping an idle network moves flits nowhere: still gated.
	for i := 0; i < 5; i++ {
		n.Step()
	}
	d.DetectNow()
	if d.Stats.GatedInvocations != 2 {
		t.Fatalf("idle steps broke the gate: %+v", d.Stats)
	}

	// New traffic bumps the resource epoch: the gate must open.
	n.Inject(2, 0, 4)
	n.Step()
	d.DetectNow()
	if d.Stats.GatedInvocations != 2 {
		t.Fatalf("pass after injection was gated: %+v", d.Stats)
	}
	if d.Stats.Invocations != 4 {
		t.Fatalf("invocation count wrong: %+v", d.Stats)
	}
}

func TestGateInvalidateForcesFullPass(t *testing.T) {
	n := quietNet(t)
	d := mustNew(t, n, Config{Every: 50, Recover: true})
	d.DetectNow()
	d.Invalidate()
	d.DetectNow()
	if d.Stats.GatedInvocations != 0 {
		t.Fatalf("invalidated pass was gated: %+v", d.Stats)
	}
}

func TestGatingDisabledUnderCensusAndTimeouts(t *testing.T) {
	for name, cfg := range map[string]Config{
		"census":   {Every: 50, CycleCensus: true},
		"timeouts": {Every: 50, TimeoutThresholds: []int64{10}},
	} {
		n := quietNet(t)
		d := mustNew(t, n, cfg)
		d.DetectNow()
		d.DetectNow()
		if d.Stats.GatedInvocations != 0 {
			t.Errorf("%s: gating active despite per-pass sampling: %+v", name, d.Stats)
		}
	}
}

// TestGateNeverSkipsStandingDeadlock ensures a detector with recovery
// disabled keeps re-reporting an unresolved deadlock: a deadlocked pass must
// never arm the gate, even though the wedged network's epoch is frozen.
func TestGateNeverSkipsStandingDeadlock(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Recover: false})
	first := d.DetectNow()
	if len(first.Deadlocks) != 1 {
		t.Fatalf("ring did not deadlock: %+v", first)
	}
	before := n.ResourceEpoch()
	second := d.DetectNow()
	if len(second.Deadlocks) != 1 {
		t.Fatalf("standing deadlock skipped on second pass: %+v", second)
	}
	if d.Stats.GatedInvocations != 0 {
		t.Fatalf("deadlocked pass was gated: %+v", d.Stats)
	}
	if n.ResourceEpoch() != before {
		t.Fatal("detection without recovery mutated the network epoch")
	}
	if d.Stats.Deadlocks != 2 {
		t.Fatalf("deadlock re-detection count wrong: %+v", d.Stats)
	}
}
