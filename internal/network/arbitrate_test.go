package network

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"flexsim/internal/message"
	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
)

// arbitrateOracle is the request-list channel arbiter the request bits
// replaced, and the reference engine's: the requester whose target VC index
// has the smallest round-robin key after the pointer.
func arbitrateOracle(vcs int, ptr int32, reqs []int) int {
	best := reqs[0]
	bestKey := int32(1 << 30)
	for _, v := range reqs {
		key := int32(v) - ptr - 1
		if key < 0 {
			key += int32(vcs)
		}
		if key < bestKey {
			bestKey = key
			best = v
		}
	}
	return best
}

// arbitrateRxOracle is the request-list reception arbiter the running best
// replaced, and the reference engine's: the head VC with the smallest
// round-robin key after the pointer.
func arbitrateRxOracle(numVCs int, ptr int32, heads []message.VC) message.VC {
	best := heads[0]
	bestKey := int64(1) << 40
	for _, vc := range heads {
		key := int64(vc) - int64(ptr)
		if key <= 0 {
			key += int64(numVCs)
		}
		if key < bestKey {
			bestKey = key
			best = vc
		}
	}
	return best
}

// TestGrantVCMatchesOracle checks the bit-scan winner against the min-key
// loop for every VC count up to 8, every pointer and every non-empty request
// mask, and at the full word width.
func TestGrantVCMatchesOracle(t *testing.T) {
	check := func(vcs int, ptr int32, mask uint64) {
		var reqs []int
		for v := 0; v < vcs; v++ {
			if mask>>v&1 != 0 {
				reqs = append(reqs, v)
			}
		}
		if got, want := grantVC(mask, ptr), arbitrateOracle(vcs, ptr, reqs); got != want {
			t.Fatalf("VCs %d, pointer %d, requests %#b: granted VC %d, oracle %d", vcs, ptr, mask, got, want)
		}
	}
	for vcs := 1; vcs <= 8; vcs++ {
		for ptr := int32(-1); ptr < int32(vcs); ptr++ {
			for mask := uint64(1); mask < 1<<vcs; mask++ {
				check(vcs, ptr, mask)
			}
		}
	}
	r := rng.New(5)
	for ptr := int32(-1); ptr < maxVCs; ptr++ {
		check(maxVCs, ptr, 1<<63)
		check(maxVCs, ptr, 1)
		for i := 0; i < 50; i++ {
			check(maxVCs, ptr, r.Uint64()|1<<uint(r.Intn(maxVCs)))
		}
	}
}

// TestRequestRxMatchesOracle checks the running-best reception winner
// against the min-key loop for random head-VC sets, pointers and request
// orders.
func TestRequestRxMatchesOracle(t *testing.T) {
	n := mustNet(t, topology.MustNew(4, 2, true), 2, 2, routing.TFAR{})
	r := rng.New(9)
	const node = 3
	for trial := 0; trial < 5000; trial++ {
		ptr := int32(r.Intn(n.numVCs+1)) - 1
		var heads []message.VC
		for k := 1 + r.Intn(8); len(heads) < k; {
			if vc := message.VC(r.Intn(n.numVCs)); !slices.Contains(heads, vc) {
				heads = append(heads, vc)
			}
		}
		n.rxRR[node] = ptr
		for _, vc := range heads {
			n.requestRx(node, vc)
		}
		if got, want := n.rxReq[node].vc, arbitrateRxOracle(n.numVCs, ptr, heads); got != want {
			t.Fatalf("pointer %d, heads %v: running best VC %d, oracle %d", ptr, heads, got, want)
		}
		n.rxReq[node] = rxNone
	}
}

// TestEjectionsInNodeOrder delivers one single-flit message to each of many
// destinations in the same cycle, with active order and destination order
// disagreeing, and requires the Delivered events in ascending node order —
// the order the reception bitmap scan must reproduce without a sort — and
// the same stream at 1 and 4 shards.
func TestEjectionsInNodeOrder(t *testing.T) {
	run := func(shards int) []trace.Event {
		topo := topology.MustNew(8, 2, true)
		var ring trace.Ring
		n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
			Shards: shards, CheckInvariants: true, Tracer: &ring})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		// Pairs of neighbours swap messages: sources ascend 0,1,2,3,... while
		// destinations go 1,0,3,2,...
		for s := 0; s < topo.Nodes(); s++ {
			n.Inject(s, s^1, 1)
		}
		stepN(n, 10)
		if n.DeliveredCount != int64(topo.Nodes()) {
			t.Fatalf("shards %d: delivered %d of %d", shards, n.DeliveredCount, topo.Nodes())
		}
		return ring.Events()
	}
	evs := run(1)
	var nodes []int
	var cycle int64
	for _, e := range evs {
		if e.Kind != trace.Delivered {
			continue
		}
		if len(nodes) > 0 && e.Cycle != cycle {
			t.Fatalf("deliveries spread over cycles %d and %d; the test needs them in one", cycle, e.Cycle)
		}
		cycle = e.Cycle
		nodes = append(nodes, e.Node)
	}
	if len(nodes) != 64 || !slices.IsSorted(nodes) {
		t.Fatalf("Delivered events at nodes %v, want all 64 ascending", nodes)
	}
	if got := run(4); !slices.Equal(got, evs) {
		t.Fatalf("4-shard trace stream differs from 1-shard:\n%v\n%v", got, evs)
	}
}

// TestNewRejectsTooManyVCs pins the word-width rule: a channel's requests
// are one bit per VC in a uint64, so New refuses more than 64 VCs rather
// than keeping a second arbitration path for wide channels.
func TestNewRejectsTooManyVCs(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	p := Params{Topo: topo, VCs: maxVCs, BufferDepth: 2, Routing: routing.TFAR{}}
	n, err := New(p)
	if err != nil {
		t.Fatalf("VCs = %d rejected: %v", maxVCs, err)
	}
	// The widest channel still arbitrates: the top VC's bit is the word's.
	n.Inject(0, 5, 4)
	stepN(n, 40)
	if n.DeliveredCount != 1 {
		t.Fatalf("delivered %d messages with %d VCs, want 1", n.DeliveredCount, maxVCs)
	}
	p.VCs = maxVCs + 1
	if _, err := New(p); err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxVCs)) {
		t.Fatalf("VCs = %d: error %v, want a rejection naming the limit", p.VCs, err)
	}
}

// flipQueueBit inverts node's bit in the queue bitmap of the worker that
// scans it.
func flipQueueBit(n *Network, node int) {
	w := n.queueWorker(node)
	b := node - w.nodeLo
	w.qNodes[b>>6] ^= 1 << (b & 63)
}

// TestCheckInvariantsCoversRequestTables corrupts the slot table the request
// bits added and requires CheckInvariants to name it. The request words and
// the work-skipping bitmaps are the reference engine's to check
// (TestReferenceCatchesCorruption).
func TestCheckInvariantsCoversRequestTables(t *testing.T) {
	n := mustNet(t, topology.MustNew(4, 2, true), 2, 2, routing.TFAR{})
	m := n.Inject(0, 10, 16)
	stepN(n, 6)
	if m.OwnedCount() < 2 {
		t.Fatalf("message owns %d VCs after 6 cycles, want a worm", m.OwnedCount())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	n.slotOf[m.HeadVC()]--
	if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "slot table") {
		t.Errorf("CheckInvariants = %v, want an error naming the slot table", err)
	}
}
