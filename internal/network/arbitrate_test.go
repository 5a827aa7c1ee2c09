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

// arbitrateOracle is the request-list channel arbiter the running winner
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

// TestRoundRobinKeyMatchesOracle checks the channel's running winner —
// the first requester holds the channel, a later one takes it when its
// rrKey is smaller — against the min-key loop, for every VC count up to 8,
// every pointer, every non-empty request set and several request orders
// (ascending, descending and shuffled), and at the full width.
func TestRoundRobinKeyMatchesOracle(t *testing.T) {
	r := rng.New(5)
	check := func(vcs int, ptr int32, reqs []int) {
		n := &Network{vcs: vcs}
		win := reqs[0]
		for _, v := range reqs[1:] {
			if n.rrKey(int32(v), ptr) < n.rrKey(int32(win), ptr) {
				win = v
			}
		}
		if want := arbitrateOracle(vcs, ptr, reqs); win != want {
			t.Fatalf("VCs %d, pointer %d, requests in order %v: running winner %d, oracle %d", vcs, ptr, reqs, win, want)
		}
	}
	orders := func(vcs int, ptr int32, reqs []int) {
		check(vcs, ptr, reqs)
		slices.Reverse(reqs)
		check(vcs, ptr, reqs)
		for i := 0; i < 3; i++ {
			for j := len(reqs) - 1; j > 0; j-- {
				k := r.Intn(j + 1)
				reqs[j], reqs[k] = reqs[k], reqs[j]
			}
			check(vcs, ptr, reqs)
		}
	}
	for vcs := 1; vcs <= 8; vcs++ {
		for ptr := int32(-1); ptr < int32(vcs); ptr++ {
			for mask := 1; mask < 1<<vcs; mask++ {
				var reqs []int
				for v := 0; v < vcs; v++ {
					if mask>>v&1 != 0 {
						reqs = append(reqs, v)
					}
				}
				orders(vcs, ptr, reqs)
			}
		}
	}
	for ptr := int32(-1); ptr < maxVCs; ptr++ {
		for i := 0; i < 20; i++ {
			var reqs []int
			for v := 0; v < maxVCs; v++ {
				if r.Intn(4) == 0 || v == int(ptr+1) && i == 0 {
					reqs = append(reqs, v)
				}
			}
			if len(reqs) > 0 {
				orders(maxVCs, ptr, reqs)
			}
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
// the order the reception bitmap scan must reproduce without a sort.
func TestEjectionsInNodeOrder(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	var ring trace.Ring
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
		CheckInvariants: true, Tracer: &ring})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs of neighbours swap messages: sources ascend 0,1,2,3,... while
	// destinations go 1,0,3,2,...
	for s := 0; s < topo.Nodes(); s++ {
		n.Inject(s, s^1, 1)
	}
	stepN(n, 10)
	if n.DeliveredCount != int64(topo.Nodes()) {
		t.Fatalf("delivered %d of %d", n.DeliveredCount, topo.Nodes())
	}
	var nodes []int
	var cycle int64
	for _, e := range ring.Events() {
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
}

// TestNewRejectsTooManyVCs pins the stated width limit: New refuses more
// than 64 VCs per channel and accepts 64.
func TestNewRejectsTooManyVCs(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	p := Params{Topo: topo, VCs: maxVCs, BufferDepth: 2, Routing: routing.TFAR{}}
	n, err := New(p)
	if err != nil {
		t.Fatalf("VCs = %d rejected: %v", maxVCs, err)
	}
	// The widest channel still arbitrates.
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

// flipQueueBit inverts node's bit in the queue bitmap.
func flipQueueBit(n *Network, node int) { n.qNodes[node>>6] ^= 1 << (node & 63) }

// TestCheckInvariantsCoversRequestTables corrupts the slot table, through
// which a contested channel finds the move it undoes, and requires
// CheckInvariants to name it. The channel records, the reception requests and
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
