package network

import (
	"runtime"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

func mustNet(t *testing.T, topo *topology.Torus, vcs, depth int, alg routing.Algorithm) *Network {
	t.Helper()
	n, err := New(Params{
		Topo: topo, VCs: vcs, BufferDepth: depth, Routing: alg,
		RecoveryDrainRate: 1, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func stepN(n *Network, cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

func TestNewValidation(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	cases := []Params{
		{VCs: 1, BufferDepth: 2, Routing: routing.DOR{}},                     // nil topo
		{Topo: topo, VCs: 0, BufferDepth: 2, Routing: routing.DOR{}},         // VCs < 1
		{Topo: topo, VCs: 1, BufferDepth: 0, Routing: routing.DOR{}},         // depth < 1
		{Topo: topo, VCs: 1, BufferDepth: 2},                                 // nil routing
		{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DatelineDOR{}}, // needs 2 VCs
	}
	for i, p := range cases {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestVCIDSpace(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	n := mustNet(t, topo, 3, 2, routing.TFAR{})
	seen := map[message.VC]bool{}
	for ch := 0; ch < topo.NumChannels(); ch++ {
		for v := 0; v < 3; v++ {
			vc := n.NetVC(topology.ChannelID(ch), v)
			if seen[vc] {
				t.Fatalf("duplicate VC id %d", vc)
			}
			seen[vc] = true
			if n.IsInjection(vc) {
				t.Fatalf("network VC %d classified as injection", vc)
			}
			if got := n.VCChannel(vc); got != topology.ChannelID(ch) {
				t.Fatalf("VCChannel(%d) = %d, want %d", vc, got, ch)
			}
			if got := n.VCIndex(vc); got != v {
				t.Fatalf("VCIndex(%d) = %d, want %d", vc, got, v)
			}
			if got, want := n.Downstream(vc), topo.ChannelDst(topology.ChannelID(ch)); got != want {
				t.Fatalf("Downstream(%d) = %d, want %d", vc, got, want)
			}
		}
	}
	for node := 0; node < topo.Nodes(); node++ {
		vc := n.InjVC(node)
		if seen[vc] {
			t.Fatalf("injection VC %d collides with network VCs", vc)
		}
		seen[vc] = true
		if !n.IsInjection(vc) || n.Downstream(vc) != node {
			t.Fatalf("injection VC %d misclassified", vc)
		}
	}
	if len(seen) != n.TotalVCs() {
		t.Fatalf("enumerated %d VCs, TotalVCs() = %d", len(seen), n.TotalVCs())
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	src := topo.Node([]int{0, 0})
	dst := topo.Node([]int{3, 2}) // 5 hops
	var delivered *message.Message
	n.OnDeliver = func(m *message.Message) { delivered = m }
	m := n.Inject(src, dst, 8)
	stepN(n, 200)
	if delivered == nil {
		t.Fatal("message not delivered")
	}
	if delivered != m || m.Status != message.Delivered {
		t.Fatalf("wrong delivery: %v", m)
	}
	if m.Consumed != 8 || m.SrcRemaining != 0 {
		t.Fatalf("flit accounting: consumed=%d srcRemaining=%d", m.Consumed, m.SrcRemaining)
	}
	// Path: injection VC + 5 network hops.
	if len(m.Hops) != 6 {
		t.Fatalf("path length = %d, want 6", len(m.Hops))
	}
	if m.Released != len(m.Hops) {
		t.Fatalf("released %d of %d VCs", m.Released, len(m.Hops))
	}
	if n.ActiveCount() != 0 || n.DeliveredCount != 1 {
		t.Fatalf("network not drained: active=%d delivered=%d", n.ActiveCount(), n.DeliveredCount)
	}
	// Latency sanity: at least hops + message length cycles, and in an
	// empty network not much more.
	lat := m.DeliverTime - m.InjectTime
	if lat < 5+8 || lat > 4*(5+8) {
		t.Errorf("latency %d outside sane bounds", lat)
	}
}

func TestSelfAddressedMessage(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	m := n.Inject(3, 3, 4)
	stepN(n, 50)
	if m.Status != message.Delivered {
		t.Fatalf("self-addressed message not delivered: %v", m)
	}
	if len(m.Hops) != 1 {
		t.Errorf("self delivery used %d VCs, want injection only", len(m.Hops))
	}
}

func TestWormStretchesAcrossVCs(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	m := n.Inject(0, 4, 16) // 4 hops, 16 flits, depth 2: must span >= 4 buffers
	for i := 0; i < 20 && m.Status != message.Delivered; i++ {
		n.Step()
		if m.Status == message.Active && m.OwnedCount() >= 4 {
			return // stretched over at least 4 VCs simultaneously
		}
	}
	t.Fatal("worm never stretched over 4 simultaneous VCs")
}

func TestVirtualCutThroughCompaction(t *testing.T) {
	// With buffer depth == message length, a blocked message compacts
	// into a single buffer: it may own at most its current buffer plus
	// one just-allocated next hop.
	topo := topology.MustNew(8, 1, false)
	n := mustNet(t, topo, 1, 16, routing.DOR{})
	// Fill the ring so something blocks.
	for s := 0; s < 8; s++ {
		n.Inject(s, (s+5)%8, 16)
		n.Inject(s, (s+6)%8, 16)
	}
	maxOwned := 0
	for i := 0; i < 400; i++ {
		n.Step()
		for _, m := range n.ActiveMessages() {
			if m.Blocked && m.SrcRemaining == 0 && m.OwnedCount() > maxOwned {
				maxOwned = m.OwnedCount()
			}
		}
	}
	if maxOwned > 2 {
		t.Errorf("VCT blocked message owned %d VCs, want <= 2 (compacted)", maxOwned)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		topo := topology.MustNew(4, 2, true)
		n := mustNet(t, topo, 2, 2, routing.TFAR{})
		r := rng.New(99)
		for i := 0; i < 400; i++ {
			for s := 0; s < topo.Nodes(); s++ {
				if r.Bernoulli(0.02) {
					n.Inject(s, r.Intn(topo.Nodes()), 8)
				}
			}
			n.Step()
		}
		return n.DeliveredCount, n.InjectedFlits, n.DeliveredFlits
	}
	d1, i1, f1 := run()
	d2, i2, f2 := run()
	if d1 != d2 || i1 != i2 || f1 != f2 {
		t.Fatalf("runs diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, i1, f1, d2, i2, f2)
	}
	if d1 == 0 {
		t.Fatal("nothing delivered in determinism run")
	}
}

func TestFlitConservationUnderLoad(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	n := mustNet(t, topo, 1, 2, routing.TFAR{}) // CheckInvariants panics on violation
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		for s := 0; s < topo.Nodes(); s++ {
			if r.Bernoulli(0.05) {
				d := r.Intn(topo.Nodes())
				if d != s {
					n.Inject(s, d, 8)
				}
			}
		}
		n.Step()
		if flits := n.FlitsInNetwork(); flits < 0 {
			t.Fatalf("negative flits in network: %d", flits)
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// buildRingDeadlock injects four 2-hop messages around a 4-node
// unidirectional ring so that each acquires its first channel and then waits
// on the next message's channel — a deterministic single-cycle deadlock.
func buildRingDeadlock(t *testing.T) *Network {
	t.Helper()
	topo := topology.MustNew(4, 1, false)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	for s := 0; s < 4; s++ {
		n.Inject(s, (s+2)%4, 8)
	}
	stepN(n, 20)
	return n
}

func snapshot(n *Network) []cwg.Msg {
	var msgs []cwg.Msg
	for _, m := range n.ActiveMessages() {
		if m.OwnedCount() == 0 {
			continue
		}
		msgs = append(msgs, cwg.Msg{
			ID:      m.ID,
			Owned:   m.OwnedVCs(nil),
			Blocked: m.Blocked && m.Status == message.Active,
			Wants:   m.Wants,
		})
	}
	return msgs
}

func TestDeterministicRingDeadlock(t *testing.T) {
	n := buildRingDeadlock(t)
	if n.BlockedCount() != 4 {
		t.Fatalf("blocked = %d, want all 4", n.BlockedCount())
	}
	g := cwg.Build(snapshot(n))
	an := g.Analyze(cwg.Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d, want 1", len(an.Deadlocks))
	}
	d := an.Deadlocks[0]
	if len(d.DeadlockSet) != 4 {
		t.Errorf("deadlock set = %v, want all four messages", d.DeadlockSet)
	}
	if d.Kind != cwg.SingleCycle {
		t.Errorf("ring deadlock kind = %v", d.Kind)
	}
	if len(d.KnotVCs) != 4 {
		t.Errorf("knot = %v, want the 4 ring channels", d.KnotVCs)
	}
	// Without recovery the network is wedged: nothing ever delivers.
	stepN(n, 500)
	if n.DeliveredCount != 0 {
		t.Fatalf("wedged network delivered %d messages", n.DeliveredCount)
	}
	if n.BlockedCount() != 4 {
		t.Fatalf("wedged network unblocked itself: %d", n.BlockedCount())
	}
	// ... and nothing in it is walked any more: a worm whose every buffer is
	// full behind a blocked header is frozen until it acquires a VC.
	for _, m := range n.ActiveMessages() {
		if !m.Frozen {
			t.Errorf("%v is not frozen in a wedged network (hops %+v)", m, m.Hops)
		}
	}
}

func TestRecoveryResolvesDeadlock(t *testing.T) {
	n := buildRingDeadlock(t)
	g := cwg.Build(snapshot(n))
	an := g.Analyze(cwg.Options{})
	victimID := an.Deadlocks[0].DeadlockSet[0]
	var victim *message.Message
	for _, m := range n.ActiveMessages() {
		if m.ID == victimID {
			victim = m
		}
	}
	n.Absorb(victim)
	if victim.Status != message.Recovering {
		t.Fatalf("victim status = %v", victim.Status)
	}
	stepN(n, 500)
	if victim.Status != message.Recovered {
		t.Fatalf("victim not recovered: %v", victim.Status)
	}
	if n.DeliveredCount != 3 || n.RecoveredCount != 1 {
		t.Fatalf("delivered=%d recovered=%d, want 3/1", n.DeliveredCount, n.RecoveredCount)
	}
	if n.ActiveCount() != 0 || n.FlitsInNetwork() != 0 {
		t.Fatalf("network not drained after recovery: active=%d flits=%d",
			n.ActiveCount(), n.FlitsInNetwork())
	}
	// All VCs free again.
	for vc := 0; vc < n.TotalVCs(); vc++ {
		if n.Owner(message.VC(vc)) != nil {
			t.Fatalf("VC %d still owned after drain", vc)
		}
	}
}

func TestInstantAbsorption(t *testing.T) {
	topo := topology.MustNew(4, 1, false)
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
		RecoveryDrainRate: 0, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		n.Inject(s, (s+2)%4, 8)
	}
	stepN(n, 20)
	victim := n.ActiveMessages()[0]
	n.Absorb(victim)
	if victim.Status != message.Recovered || victim.Consumed != victim.Len {
		t.Fatalf("instant absorption incomplete: %v consumed=%d", victim.Status, victim.Consumed)
	}
	n.Step() // releasePhase frees the VCs
	for i := victim.Released; i < len(victim.Hops); i++ {
		t.Fatalf("victim VC slot %d not released", i)
	}
	stepN(n, 300)
	if n.DeliveredCount != 3 {
		t.Fatalf("remaining messages not delivered: %d", n.DeliveredCount)
	}
}

func TestAbsorbQueuedMessageIsNoop(t *testing.T) {
	topo := topology.MustNew(4, 1, false)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	m := n.Inject(0, 2, 8)
	n.Absorb(m) // still queued; must be ignored
	if m.Status != message.Queued {
		t.Fatalf("queued message absorbed: %v", m.Status)
	}
}

func TestInjectionSerializesPerNode(t *testing.T) {
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 2, routing.DOR{})
	a := n.Inject(0, 2, 8)
	b := n.Inject(0, 3, 8)
	n.Step()
	if a.Status != message.Active || b.Status != message.Queued {
		t.Fatalf("injection order wrong: a=%v b=%v", a.Status, b.Status)
	}
	if n.QueuedCount() != 1 {
		t.Errorf("QueuedCount = %d", n.QueuedCount())
	}
	stepN(n, 200)
	if b.Status != message.Delivered {
		t.Fatalf("second message never delivered: %v", b.Status)
	}
	if b.InjectTime <= a.InjectTime {
		t.Errorf("b injected at %d, not after a at %d", b.InjectTime, a.InjectTime)
	}
}

func TestReceptionBandwidthOneFlitPerCycle(t *testing.T) {
	// Two messages converging on one destination from opposite sides:
	// ejection is limited to one flit per cycle, so draining 2 x 8 flits
	// takes at least 16 cycles from first ejection.
	topo := topology.MustNew(8, 1, true)
	n := mustNet(t, topo, 1, 8, routing.DOR{})
	n.Inject(2, 4, 8)
	n.Inject(6, 4, 8)
	prev := int64(0)
	for i := 0; i < 100; i++ {
		n.Step()
		got := n.DeliveredFlits
		if got-prev > 1 {
			t.Fatalf("cycle %d: node ejected %d flits in one cycle", i, got-prev)
		}
		prev = got
	}
	if n.DeliveredCount != 2 {
		t.Fatalf("delivered %d messages", n.DeliveredCount)
	}
}

func TestLinkBandwidthSharedByVCs(t *testing.T) {
	// Two worms share one physical channel over separate VCs; the link
	// moves one flit per cycle, so both finishing takes about twice as
	// long as one alone.
	solo := func() int64 {
		topo := topology.MustNew(8, 1, true)
		n := mustNet(t, topo, 2, 2, routing.DOR{})
		m := n.Inject(0, 3, 16)
		for i := 0; i < 500; i++ {
			n.Step()
			if m.Status == message.Delivered {
				return n.Now()
			}
		}
		return -1
	}()
	both := func() int64 {
		topo := topology.MustNew(8, 1, true)
		n := mustNet(t, topo, 2, 2, routing.DOR{})
		a := n.Inject(0, 3, 16)
		b := n.Inject(0, 3, 16) // same source: serialized injection shares links
		for i := 0; i < 500; i++ {
			n.Step()
			if a.Status == message.Delivered && b.Status == message.Delivered {
				return n.Now()
			}
		}
		return -1
	}()
	if solo < 0 || both < 0 {
		t.Fatal("messages did not deliver")
	}
	if both < solo+12 {
		t.Errorf("shared-link run finished in %d vs solo %d; bandwidth not enforced", both, solo)
	}
}

func TestDatelineCrossingSetsBit(t *testing.T) {
	topo := topology.MustNew(8, 1, false)
	n := mustNet(t, topo, 2, 2, routing.DatelineDOR{})
	m := n.Inject(6, 2, 4) // must cross the wrap link (7 -> 0)
	stepN(n, 100)
	if m.Status != message.Delivered {
		t.Fatalf("message not delivered: %v", m)
	}
	if m.Crossed&1 == 0 {
		t.Error("dateline crossing did not set Crossed bit")
	}
	// The VCs used after the wrap must be the odd class.
	sawOdd := false
	for _, h := range m.Hops[1:] {
		vc := h.VC
		if n.VCIndex(vc)%2 == 1 {
			sawOdd = true
		}
	}
	if !sawOdd {
		t.Error("no class-1 VC used after dateline crossing")
	}
}

func TestBlockedWantsRecorded(t *testing.T) {
	n := buildRingDeadlock(t)
	for _, m := range n.ActiveMessages() {
		if !m.Blocked {
			t.Fatalf("message %d not blocked", m.ID)
		}
		if len(m.Wants) != 1 {
			t.Fatalf("DOR blocked message wants %d VCs, want exactly 1", len(m.Wants))
		}
		owner := n.Owner(m.Wants[0])
		if owner == nil || owner == m {
			t.Fatalf("wanted VC owner wrong: %v", owner)
		}
	}
}

func TestVCStringForms(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	n := mustNet(t, topo, 2, 2, routing.TFAR{})
	if s := n.VCString(n.InjVC(3)); s != "inj@3" {
		t.Errorf("injection VCString = %q", s)
	}
	if s := n.VCString(n.NetVC(0, 1)); s == "" {
		t.Error("empty network VCString")
	}
}

// TestAllocateSteadyStateAllocs: once a TFAR network has wedged and
// injection has stopped, every header is parked and a cycle must not
// allocate — no per-header routing.Request, no Wants regrowth, nothing.
func TestAllocateSteadyStateAllocs(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.TFAR{}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < 1500; i++ {
		for s := 0; s < topo.Nodes(); s++ {
			if d := r.Intn(topo.Nodes()); d != s && r.Bernoulli(0.05) {
				n.Inject(s, d, 32)
			}
		}
		n.Step()
	}
	stepN(n, 1000) // injection stopped: whatever can still drain, drains
	if n.BlockedCount() == 0 || n.BlockedCount() != n.ActiveCount() {
		t.Fatalf("network not wedged: %d of %d active messages blocked", n.BlockedCount(), n.ActiveCount())
	}
	if allocs := testing.AllocsPerRun(200, n.Step); allocs != 0 {
		t.Errorf("Step on a wedged network allocates %v objects per cycle, want 0", allocs)
	}
}

// TestMsgQueueDropsDrainedMessages pins the queue's no-retention rule: after
// every message is popped — through pop's own compactions — no slot of the
// backing array still points at one, so a delivered message (and the slab
// chunk it was carved from) is collectable.
func TestMsgQueueDropsDrainedMessages(t *testing.T) {
	var q msgQueue
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			q.push(message.New(message.ID(i), 0, 1, 4, 0))
		}
		for i := 0; i < 400; i++ { // leave a remainder so compaction moves live entries
			q.pop()
		}
	}
	for q.len() > 0 {
		q.pop()
	}
	for i, m := range q.items[:cap(q.items)] {
		if m != nil {
			t.Fatalf("drained queue still holds message %d in slot %d of %d", m.ID, i, cap(q.items))
		}
	}
}

// TestInjectCarvesFromSlab checks the slab's contract: hop chains get the
// minimal path's capacity (so a minimally routed message never reallocates),
// neighbours in a chunk do not share backing storage, and a path longer than
// the carve just grows onto the heap.
func TestInjectCarvesFromSlab(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	n := mustNet(t, topo, 2, 2, routing.TFAR{})
	a := n.Inject(0, topo.Node([]int{3, 2}), 8)
	b := n.Inject(1, 2, 8)
	if got, want := cap(a.Hops), 6; got != want {
		t.Errorf("5-hop message carved %d hops, want %d (path + injection VC)", got, want)
	}
	if got, want := cap(a.Wants), 4*2; got != want {
		t.Errorf("Wants capacity %d, want %d (4 channels per router x 2 VCs)", got, want)
	}
	first := &a.Hops[:1][0] // the carve's first element, before anything is acquired
	stepN(n, 60)
	if a.Status != message.Delivered || b.Status != message.Delivered {
		t.Fatalf("statuses %v, %v; want both delivered", a.Status, b.Status)
	}
	if len(a.Hops) != 6 || &a.Hops[0] != first {
		t.Errorf("minimal path reallocated its hop chain (len %d)", len(a.Hops))
	}
	if len(b.Hops) != 2 || b.Hops[0].VC != n.InjVC(1) {
		t.Errorf("neighbour's hop chain corrupted: %+v", b.Hops)
	}
	for i := 0; i < 4; i++ { // past the carve: append must move, not overrun b
		a.Acquire(message.VC(i))
	}
	if len(b.Hops) != 2 || b.Hops[0].VC != n.InjVC(1) {
		t.Errorf("growing one chain past its carve overwrote its neighbour: %+v", b.Hops)
	}
}

// TestInjectSteadyStateAllocs runs the 16-ary 2-cube at load 0.3 (TFAR, two
// VCs: about a tenth of headers blocked, the rest moving) and requires the
// whole inject-route-deliver life of a message to cost at most 0.05 heap
// allocations amortised: slab chunks, queue and active-list growth, nothing
// per message.
func TestInjectSteadyStateAllocs(t *testing.T) {
	topo := topology.MustNew(16, 2, true)
	n, err := New(Params{Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.TFAR{}})
	if err != nil {
		t.Fatal(err)
	}
	const msgLen = 32
	p := 0.3 * topo.CapacityPerNode() / msgLen
	r := rng.New(3)
	run := func(cycles int) {
		for i := 0; i < cycles; i++ {
			for s := 0; s < topo.Nodes(); s++ {
				if d := r.Intn(topo.Nodes()); d != s && r.Bernoulli(p) {
					n.Inject(s, d, msgLen)
				}
			}
			n.Step()
		}
	}
	run(2000) // reach steady occupancy and grow the reusable buffers
	var before, after runtime.MemStats
	delivered := n.DeliveredCount
	runtime.ReadMemStats(&before)
	run(4000)
	runtime.ReadMemStats(&after)
	msgs := n.DeliveredCount - delivered
	if msgs < 1000 {
		t.Fatalf("only %d messages delivered in the measured window", msgs)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%.4f allocations per delivered message (%d over %d messages)", per, after.Mallocs-before.Mallocs, msgs)
	if per > 0.05 {
		t.Errorf("%.3f allocations per delivered message (%d over %d messages), want <= 0.05",
			per, after.Mallocs-before.Mallocs, msgs)
	}
}

// TestActiveMessagesSorted pins the stable-iteration satellite: the slice
// is ID-ascending whatever the internal active order, and the view tracks
// membership changes.
func TestActiveMessagesSorted(t *testing.T) {
	n := smallNet(t)
	// Inject from high node ids down so creation order differs from any
	// node-ordered internal layout.
	n.Inject(9, 2, 4)
	n.Inject(4, 8, 4)
	n.Inject(12, 1, 4)
	n.Step()
	ms := n.ActiveMessages()
	if len(ms) != 3 {
		t.Fatalf("got %d active messages, want 3", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].ID >= ms[i].ID {
			t.Fatalf("ActiveMessages not ID-sorted: %d before %d", ms[i-1].ID, ms[i].ID)
		}
	}
	for i := 0; i < 40; i++ {
		n.Step()
	}
	if got := len(n.ActiveMessages()); got != 0 {
		t.Errorf("ActiveMessages after drain = %d messages, want 0", got)
	}
}
