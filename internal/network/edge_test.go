package network

import (
	"testing"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

func TestSingleFlitMessages(t *testing.T) {
	// Degenerate worm: header == tail. Must flow and release correctly.
	topo := topology.MustNew(8, 2, true)
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 1, Routing: routing.DOR{},
		CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		n.Inject(s, (s+9)%topo.Nodes(), 1)
	}
	for i := 0; i < 400; i++ {
		n.Step()
	}
	if n.DeliveredCount != 16 {
		t.Fatalf("delivered %d of 16 single-flit messages", n.DeliveredCount)
	}
	if n.ActiveCount() != 0 || n.FlitsInNetwork() != 0 {
		t.Fatal("network not drained")
	}
}

// TestSharedChannelVCFairness: two long worms multiplexed over the same
// physical channel on different VCs must both make progress (round-robin
// arbitration), finishing within a modest span of each other.
func TestSharedChannelVCFairness(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n, err := New(Params{Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.DOR{},
		CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct sources whose paths converge on channels 0->1->2->3, so
	// the worms multiplex those links over separate VCs.
	a := n.Inject(0, 3, 32)
	n.Step() // a grabs VC 0 of channel 0->1 first
	b := n.Inject(7, 3, 32)
	var doneA, doneB int64
	for i := 0; i < 1000 && (doneA == 0 || doneB == 0); i++ {
		n.Step()
		if a.Status == message.Delivered && doneA == 0 {
			doneA = n.Now()
		}
		if b.Status == message.Delivered && doneB == 0 {
			doneB = n.Now()
		}
	}
	if doneA == 0 || doneB == 0 {
		t.Fatalf("worms did not finish: a=%d b=%d", doneA, doneB)
	}
	gap := doneB - doneA
	if gap < 0 {
		gap = -gap
	}
	// Interleaved link sharing: the two finish close together, rather
	// than fully serialized (gap ~ message length).
	if gap > 20 {
		t.Errorf("finish gap %d cycles suggests starvation, not round-robin", gap)
	}
}

func TestBlockedCountTracksState(t *testing.T) {
	topo := topology.MustNew(4, 1, false)
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
		RecoveryDrainRate: 0, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if n.BlockedCount() != 0 {
		t.Fatal("fresh network reports blockage")
	}
	for s := 0; s < 4; s++ {
		n.Inject(s, (s+2)%4, 8)
	}
	for i := 0; i < 20; i++ {
		n.Step()
	}
	if n.BlockedCount() != 4 {
		t.Fatalf("blocked = %d, want 4", n.BlockedCount())
	}
	// Break the deadlock; blockage must clear as the network drains.
	n.Absorb(n.ActiveMessages()[0])
	for i := 0; i < 300; i++ {
		n.Step()
	}
	if n.BlockedCount() != 0 {
		t.Fatalf("blocked = %d after drain", n.BlockedCount())
	}
}

func TestNowAdvances(t *testing.T) {
	topo := topology.MustNew(4, 1, true)
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Now() != 0 {
		t.Fatal("fresh network clock nonzero")
	}
	n.Step()
	n.Step()
	if n.Now() != 2 {
		t.Fatalf("Now = %d after 2 steps", n.Now())
	}
}
