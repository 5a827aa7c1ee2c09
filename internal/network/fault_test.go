package network

import (
	"testing"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// chanBetween returns the directed channel a->b.
func chanBetween(t *testing.T, topo topology.Network, a, b int) topology.ChannelID {
	t.Helper()
	for _, ch := range topo.OutChannels(a, nil) {
		if topo.ChannelDst(ch) == b {
			return ch
		}
	}
	t.Fatalf("no channel %d->%d", a, b)
	return topology.None
}

func TestLinkDownKillsOccupant(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	m := n.Inject(0, 4, 16)
	// Step until the header holds a network channel VC.
	for i := 0; i < 50 && (len(m.Hops) < 2 || m.Status != message.Active); i++ {
		n.Step()
	}
	if len(m.Hops) < 2 {
		t.Fatal("message never acquired a network VC")
	}
	ch := n.VCChannel(m.Hops[1].VC)
	n.SetLinkDown(ch)
	if m.Status != message.Killed {
		t.Fatalf("occupant status = %v, want Killed", m.Status)
	}
	if n.KilledCount != 1 || n.KilledFlits <= 0 {
		t.Fatalf("killed accounting: count=%d flits=%d", n.KilledCount, n.KilledFlits)
	}
	// The next release phases must free every VC the casualty held.
	stepN(n, 5)
	if n.ActiveCount() != 0 {
		t.Fatalf("killed message still active: %d", n.ActiveCount())
	}
	for vc, owner := range n.owner {
		if owner == m {
			t.Fatalf("killed message still owns VC %d", vc)
		}
	}
	if n.FlitsInNetwork() != 0 {
		t.Fatalf("flit accounting leaked: %d in network", n.FlitsInNetwork())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultedChannelExcludedFromSupply(t *testing.T) {
	// 4x4 torus with adaptive routing: two minimal first hops exist from
	// the source; killing one must route traffic over the other, with no
	// casualties.
	topo := topology.MustNew(4, 2, true)
	n := mustNet(t, topo, 2, 2, routing.TFAR{})
	src := topo.Node([]int{0, 0})
	dst := topo.Node([]int{1, 1})
	dead := chanBetween(t, topo, src, topo.Node([]int{1, 0}))
	n.SetLinkDown(dead)
	m := n.Inject(src, dst, 8)
	stepN(n, 200)
	if m.Status != message.Delivered {
		t.Fatalf("status = %v, want Delivered", m.Status)
	}
	for _, h := range m.Hops {
		vc := h.VC
		if !n.IsInjection(vc) && n.VCChannel(vc) == dead {
			t.Fatal("message routed over the downed channel")
		}
	}
	if n.KilledCount != 0 || n.UnroutableCount != 0 {
		t.Fatalf("healthy reroute produced casualties: killed=%d unroutable=%d",
			n.KilledCount, n.UnroutableCount)
	}
}

func TestLinkUpRestoresChannel(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	ch := chanBetween(t, topo, 0, 1)
	n.SetLinkDown(ch)
	n.SetLinkUp(ch)
	if n.LinksDown() != 0 || n.FaultsActive() != 0 {
		t.Fatalf("repair not reflected: linksDown=%d", n.LinksDown())
	}
	m := n.Inject(0, 1, 4)
	stepN(n, 50)
	if m.Status != message.Delivered {
		t.Fatalf("status after repair = %v, want Delivered", m.Status)
	}
}

func TestVCDownLockout(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 2, 2, routing.DOR{})
	ch := chanBetween(t, topo, 0, 1)
	n.SetVCDown(ch, 0)
	m := n.Inject(0, 1, 4)
	stepN(n, 50)
	if m.Status != message.Delivered {
		t.Fatalf("status = %v, want Delivered over the surviving VC", m.Status)
	}
	used := false
	for _, h := range m.Hops {
		vc := h.VC
		if !n.IsInjection(vc) && n.VCChannel(vc) == ch {
			if n.VCIndex(vc) != 1 {
				t.Fatalf("message used locked VC %d of channel %d", n.VCIndex(vc), ch)
			}
			used = true
		}
	}
	if !used {
		t.Fatal("message never traversed the channel under test")
	}
	n.SetVCUp(ch, 0)
	if n.FaultsActive() != 0 {
		t.Fatalf("vc-up left %d faults active", n.FaultsActive())
	}
}

func TestNodeDownKillsDestinedAndQueued(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	inFlight := n.Inject(0, 4, 16)
	for i := 0; i < 50 && inFlight.Status != message.Active; i++ {
		n.Step()
	}
	n.SetNodeDown(4)
	if inFlight.Status != message.Killed {
		t.Fatalf("in-flight message to dead node: status = %v", inFlight.Status)
	}

	// A message injected toward the dead node is dropped at the queue head.
	lateDoomed := n.Inject(1, 4, 4)
	// A dead router's own queue stops injecting entirely.
	stuck := n.Inject(4, 0, 4)
	stepN(n, 20)
	if lateDoomed.Status != message.Killed {
		t.Fatalf("queued message to dead node: status = %v", lateDoomed.Status)
	}
	if stuck.Status != message.Queued || n.QueuedCount() != 1 {
		t.Fatalf("dead node injected: status=%v queued=%d", stuck.Status, n.QueuedCount())
	}

	// Restart: the stuck message drains normally.
	n.SetNodeUp(4)
	stepN(n, 100)
	if stuck.Status != message.Delivered {
		t.Fatalf("after node-up: status = %v, want Delivered", stuck.Status)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkUpCannotReviveDeadEndpoint(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	ch := chanBetween(t, topo, 0, 1)
	n.SetNodeDown(1)
	n.SetLinkDown(ch)
	n.SetLinkUp(ch)
	if n.faults.alive(ch, 0) {
		t.Fatal("channel into a dead node reported alive after link-up")
	}
	n.SetNodeUp(1)
	if !n.faults.alive(ch, 0) {
		t.Fatal("channel still dead after both repairs")
	}
}

func TestUnroutableKilledAtSource(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	// Sever both channels out of node 0: anything injected there has no
	// live route at all.
	for _, ch := range topo.OutChannels(0, nil) {
		n.SetLinkDown(ch)
	}
	m := n.Inject(0, 2, 4)
	stepN(n, 20)
	if m.Status != message.Killed {
		t.Fatalf("status = %v, want Killed (unroutable)", m.Status)
	}
	if n.UnroutableCount != 1 {
		t.Fatalf("UnroutableCount = %d, want 1", n.UnroutableCount)
	}
	if n.ActiveCount() != 0 || n.FlitsInNetwork() != 0 {
		t.Fatalf("network not drained: active=%d flits=%d", n.ActiveCount(), n.FlitsInNetwork())
	}
}

func TestHopBudgetKillsWanderer(t *testing.T) {
	// On a ring with deterministic routing, a downed link leaves blind
	// misrouting ping-ponging between the source and its other neighbor;
	// the hop budget must eventually retire the wanderer instead of
	// letting it livelock forever.
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	n.SetLinkDown(chanBetween(t, topo, 0, 1))
	m := n.Inject(0, 2, 2)
	stepN(n, 2000)
	if m.Status == message.Active {
		t.Fatalf("wanderer still active after 2000 cycles (%d hops)", len(m.Hops))
	}
	if m.Status == message.Killed && n.UnroutableCount != 1 {
		t.Fatalf("wanderer killed but UnroutableCount = %d", n.UnroutableCount)
	}
	if n.ActiveCount() != 0 || n.FlitsInNetwork() != 0 {
		t.Fatalf("network not drained: active=%d flits=%d", n.ActiveCount(), n.FlitsInNetwork())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIrregularDisconnectedPairKilled: on an irregular switch graph, cut
// every link incident to a destination (both endpoints stay up). Messages
// addressed to it have a disconnected source/destination pair: minimal
// adaptive routing finds no live candidate anywhere, and the header must be
// retired as unroutable — counted, not spinning forever.
func TestIrregularDisconnectedPairKilled(t *testing.T) {
	topo := topology.MustNewIrregular(10, 4, 3)
	n, err := New(Params{
		Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.MinAdaptive{},
		RecoveryDrainRate: 1, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dst = 7
	for ch := 0; ch < topo.NumChannels(); ch++ {
		id := topology.ChannelID(ch)
		if !topo.ChannelExists(id) {
			continue
		}
		if topo.ChannelSrc(id) == dst || topo.ChannelDst(id) == dst {
			n.SetLinkDown(id)
		}
	}
	src := 0
	if src == dst {
		src = 1
	}
	doomed := n.Inject(src, dst, 4)
	fine := n.Inject(src, (dst+1)%10, 4)
	stepN(n, 4000)
	if doomed.Status != message.Killed {
		t.Fatalf("disconnected-pair message: status = %v after 4000 cycles", doomed.Status)
	}
	if n.UnroutableCount != 1 {
		t.Fatalf("UnroutableCount = %d, want 1", n.UnroutableCount)
	}
	if fine.Status != message.Delivered {
		t.Fatalf("reachable-destination message: status = %v", fine.Status)
	}
	if n.ActiveCount() != 0 || n.FlitsInNetwork() != 0 {
		t.Fatalf("network not drained: active=%d flits=%d", n.ActiveCount(), n.FlitsInNetwork())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultEventsBumpResourceEpoch(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 2, 2, routing.DOR{})
	ch := chanBetween(t, topo, 0, 1)
	steps := []func(){
		func() { n.SetLinkDown(ch) },
		func() { n.SetLinkUp(ch) },
		func() { n.SetVCDown(ch, 1) },
		func() { n.SetVCUp(ch, 1) },
		func() { n.SetNodeDown(3) },
		func() { n.SetNodeUp(3) },
	}
	for i, apply := range steps {
		before := n.ResourceEpoch()
		apply()
		if n.ResourceEpoch() == before {
			t.Errorf("step %d did not bump the resource epoch", i)
		}
	}
}

func TestFaultSettersIdempotent(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	ch := chanBetween(t, topo, 0, 1)
	n.SetLinkDown(ch)
	n.SetLinkDown(ch)
	n.SetNodeDown(5)
	n.SetNodeDown(5)
	if n.FaultsActive() != 2 {
		t.Fatalf("FaultsActive = %d after duplicate downs, want 2", n.FaultsActive())
	}
	n.SetLinkUp(ch)
	n.SetLinkUp(ch)
	n.SetNodeUp(5)
	n.SetNodeUp(5)
	if n.FaultsActive() != 0 {
		t.Fatalf("FaultsActive = %d after repairs, want 0", n.FaultsActive())
	}
}
