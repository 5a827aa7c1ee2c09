// Package network implements the flit-level, cycle-accurate model of a
// wormhole / virtual cut-through network that the paper's FlexSim simulator
// provides — over any topology.Network (k-ary n-cubes, meshes, irregular
// switch graphs): per-VC FIFO edge buffers with credit-based flow control,
// one flit per cycle per physical channel with round-robin arbitration among
// virtual channels, per-hop virtual channel allocation at the header,
// release at tail departure, one injection and one reception channel per
// node, and flit-by-flit absorption of deadlock victims (synthesized
// Disha-style recovery).
//
// The model's essential properties — exclusive VC ownership from header
// allocation to tail departure, blocking of headers whose entire routing
// candidate set is owned, and FIFO single-message buffers — are exactly the
// premises of the channel-wait-for-graph deadlock theory; everything else
// (pipelining detail, arbitration fairness) only shifts constants.
//
// Every flit move of a cycle is decided on pre-cycle state (a worm's walk
// reads its own hops as they stood before the cycle, and a channel's
// round-robin winner is measured from its pre-cycle pointer), which keeps the
// simulation deterministic, prevents a flit from traversing two links in one
// cycle, and enforces link bandwidth exactly.
// One goroutine steps every cycle (see engine.go); parallelism belongs to
// the sweep, which runs independent points side by side.
package network

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
)

// Params configures a Network.
type Params struct {
	Topo topology.Network
	// VCs is the number of virtual channels per physical channel (>= 1).
	VCs int
	// BufferDepth is the per-VC buffer capacity in flits (>= 1), injection
	// VCs included. A depth equal to the message length yields virtual
	// cut-through behaviour; smaller depths yield (buffered) wormhole.
	BufferDepth int
	// Routing is the routing relation.
	Routing routing.Algorithm
	// RecoveryDrainRate is the number of victim flits absorbed per cycle
	// during deadlock recovery; 0 means instantaneous absorption.
	RecoveryDrainRate int
	// CheckInvariants makes Step validate the state contract after every
	// cycle and panic on a violation (tests only; costly): flit conservation,
	// exclusive ownership, the owner and slot tables and buffer bounds (see
	// Network.CheckInvariants).
	CheckInvariants bool
	// Tracer, if non-nil, receives message lifecycle events.
	Tracer trace.Tracer
}

// maxVCs is the widest physical channel New accepts, a stated limit far
// above the paper's one to four.
const maxVCs = 64

// chWinner is a physical channel's transfer grant so far in the current
// cycle (see planGrant). It is this cycle's while cycle equals the network's
// clock: chRR then holds the winning VC index, and ptr the pointer chRR held
// before the cycle, from which every requester's round-robin key is measured.
// curDim and crossed are the winner's header state before its move, for an
// undo, when the move carried its header.
type chWinner struct {
	cycle   int64
	ptr     int32
	curDim  int32
	crossed uint32
}

// rxRequest is a node's best reception request so far this cycle: the head
// VC whose round-robin key is smallest.
type rxRequest struct {
	key int32
	vc  message.VC
}

// rxNone is the reset value of a node's reception request: no head VC asks
// for the reception port this cycle. Real round-robin keys are in
// [1, numVCs], far below it.
var rxNone = rxRequest{key: math.MaxInt32, vc: message.NoVC}

// Network is the simulated network state. A simulation run owns one Network
// and steps it from a single goroutine; nothing in it is safe for concurrent
// use.
type Network struct {
	p     Params
	topo  topology.Network
	vcs   int
	depth int32

	now int64

	// resEpoch counts blocked-set/resource mutations: it is bumped
	// whenever a message acquires or releases a VC, blocks, unblocks, or
	// enters recovery — exactly the events that can change the channel
	// wait-for graph. Detectors use it to skip rebuilding an unchanged
	// CWG (see ResourceEpoch).
	resEpoch uint64

	numNetVCs int
	numVCs    int
	owner     []*message.Message // by VC id; nil = free
	// slotOf is, for an owned VC, its index in the owner's Hops (written
	// where owner is, by acquire); meaningless for a free VC. With owner it
	// turns a VC id into the flit movement that fills it, which is how a
	// contended channel finds the move it undoes (see planGrant).
	slotOf []int32

	// Geometry and routing specialisation resolved once in New, so the
	// cycle kernels index tables instead of calling through the topology
	// and routing interfaces: downstream is Downstream by VC id (-1 for a
	// mesh's nonexistent edge channels), chOf the physical channel by VC id
	// (-1 for an injection VC) so no kernel divides by the VC count,
	// chDim/chFlags are the topology's ChannelDim/RouteFlags by channel, and
	// maxDeroutes is the misrouting budget (0 for every relation but
	// MisroutingFAR).
	downstream  []int32
	chOf        []int32
	chDim       []int32
	chFlags     []uint32
	maxDeroutes int

	// vcSrc is, by VC id, the router the VC leaves: its channel's source,
	// or the node of an injection VC. freed counts, per router, the VCs
	// applyAndRelease has freed there. A blocked header wants only output
	// VCs of the router it sits at, so while that router's count stands
	// still nothing it wants has been freed (see parked).
	vcSrc []int32
	freed []uint32

	// faultGen counts fault-set mutations (every effective SetLink*,
	// SetVC*, SetNode* call). A blocked message's candidate set depends
	// only on its header state, which is frozen while it is blocked, and
	// on the fault set; Message.WantsGen records the generation Wants was
	// routed under, so allocate re-routes a parked header only after a
	// fault mutation or once a wanted VC is free.
	faultGen uint32

	chRR  []int32    // per physical channel: last granted VC index
	chWin []chWinner // per physical channel: this cycle's winner so far
	rxRR  []int32    // per node: last granted head-VC id (reception arbitration)

	queues  []msgQueue // per node source queue
	active  []*message.Message
	nextID  message.ID
	queued  int // total messages waiting in source queues
	blocked int // active messages blocked as of the last allocation phase
	retired int // messages retired since the last compactActive

	// activeByID is the lazily updated ID-sorted view of active, returned
	// by ActiveMessages so observers iterate in a stable order regardless
	// of internal scheduling; activeDirty marks it stale (membership
	// changed). It holds active[:activeSeen] as of its last update: the
	// messages appended to active since then are active[activeSeen:]
	// (compactActive keeps the index), and joined is their sorting scratch.
	activeByID  []*message.Message
	activeDirty bool
	activeSeen  int
	joined      []*message.Message

	// Per-cycle reception requests, all rxNone between cycles: per node the
	// request that wins so far.
	rxReq []rxRequest

	// Where the cycle has work, one bit per node (see engine.go).
	rxNodes []uint64
	qNodes  []uint64

	// Routing scratch. req is reused for every Candidates call: a per-call
	// Request would escape through the interface call, one heap object per
	// routed header.
	req     routing.Request
	candBuf []routing.Candidate
	fbBuf   []routing.Candidate
	chBuf   []topology.ChannelID
	hdr     message.Message // Route's header, reused

	slab msgSlab

	// OnDeliver, if set, is called when a message is delivered normally
	// or absorbed by recovery (Status distinguishes the two).
	OnDeliver func(*message.Message)

	// faults is the lazily allocated fault state (see fault.go); nil on a
	// healthy network, so fault-free runs pay one nil check per phase.
	faults *faultState

	// resLog, if attached, records every epoch-bumping resource mutation
	// for deadlock-formation replay (see forensics.go); nil costs one
	// branch per mutation.
	resLog *ResourceLog

	// eng, if attached, accumulates engine telemetry (see telemetry.go);
	// Step then stamps each phase group. nil costs a few branches per
	// cycle.
	eng *EngineStats

	// Counters (monotonic).
	DeliveredCount int64
	RecoveredCount int64
	InjectedFlits  int64
	DeliveredFlits int64
	AbsorbedFlits  int64
	// KilledCount counts messages removed by faults (dead channel/node or
	// unroutable); KilledFlits counts their discarded buffered flits, and
	// UnroutableCount the subset of kills with no live route remaining.
	KilledCount     int64
	KilledFlits     int64
	UnroutableCount int64
}

// msgQueue is a FIFO with amortized O(1) pop.
type msgQueue struct {
	items []*message.Message
	head  int
}

func (q *msgQueue) push(m *message.Message) { q.items = append(q.items, m) }

func (q *msgQueue) peek() *message.Message {
	if q.head >= len(q.items) {
		return nil
	}
	return q.items[q.head]
}

// pop drops the head. Vacated slots are nilled so the queue never pins a
// message (and with it a whole slab chunk) past its delivery, and a queue
// that empties rewinds instead of growing its array one pop at a time.
func (q *msgQueue) pop() {
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) || q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
}

func (q *msgQueue) len() int { return len(q.items) - q.head }

// msgSlab carves Messages and the backing arrays of their Hops and Wants out
// of per-network chunks, so steady-state injection costs three allocations
// per chunk instead of four or more per message. Nothing is recycled: a
// retired message stays valid for whoever still holds it (OnDeliver hooks,
// workloads), and a chunk is collected once every message carved from it is
// unreachable. Chunks are sized from the topology, so a 16-router network
// does not pay for a 1024-router chunk.
type msgSlab struct {
	msgs  []message.Message
	hops  []message.Hop
	wants []message.VC

	chunkMsgs  int // messages per chunk: one per router, within [64, 1024]
	hopsPerMsg int // hop chunk = chunkMsgs × (mean minimal path + injection VC)
	wantsCap   int // per message: channels per router × VCs, the widest candidate set on a regular network
}

func newMsgSlab(t topology.Network, vcs int) msgSlab {
	nodes := t.Nodes()
	return msgSlab{
		chunkMsgs:  min(max(nodes, 64), 1024),
		hopsPerMsg: int(math.Ceil(t.AvgDistance())) + 1,
		wantsCap:   (t.NumChannels() + nodes - 1) / nodes * vcs,
	}
}

// alloc stores v in the next message slot and gives it empty Hops of
// capacity hopCap (the minimal path; a misrouted path appends past it onto
// the heap) and empty Wants of capacity wantsCap.
func (s *msgSlab) alloc(v message.Message, hopCap int) *message.Message {
	if len(s.msgs) == 0 {
		s.msgs = make([]message.Message, s.chunkMsgs)
	}
	if len(s.hops) < hopCap {
		s.hops = make([]message.Hop, max(s.chunkMsgs*s.hopsPerMsg, hopCap))
	}
	if len(s.wants) < s.wantsCap {
		s.wants = make([]message.VC, s.chunkMsgs*s.wantsCap)
	}
	m := &s.msgs[0]
	s.msgs = s.msgs[1:]
	*m = v
	m.Hops = s.hops[:0:hopCap]
	s.hops = s.hops[hopCap:]
	m.Wants = s.wants[:0:s.wantsCap]
	s.wants = s.wants[s.wantsCap:]
	return m
}

// New constructs an empty network.
func New(p Params) (*Network, error) {
	if p.Topo == nil {
		return nil, fmt.Errorf("network: nil topology")
	}
	if p.VCs < 1 || p.VCs > maxVCs {
		return nil, fmt.Errorf("network: VCs must be in [1, %d], got %d", maxVCs, p.VCs)
	}
	if p.BufferDepth < 1 {
		return nil, fmt.Errorf("network: BufferDepth must be >= 1, got %d", p.BufferDepth)
	}
	if p.Routing == nil {
		return nil, fmt.Errorf("network: nil routing algorithm")
	}
	if p.VCs < p.Routing.MinVCs() {
		return nil, fmt.Errorf("network: routing %q requires >= %d VCs, got %d",
			p.Routing.Name(), p.Routing.MinVCs(), p.VCs)
	}
	if v, ok := p.Routing.(routing.TopologyValidator); ok {
		if err := v.ValidateTopo(p.Topo); err != nil {
			return nil, err
		}
	}
	t := p.Topo
	n := &Network{
		p:     p,
		topo:  t,
		vcs:   p.VCs,
		depth: int32(p.BufferDepth),

		numNetVCs: t.NumChannels() * p.VCs,
		chRR:      make([]int32, t.NumChannels()),
		rxRR:      make([]int32, t.Nodes()),
		queues:    make([]msgQueue, t.Nodes()),
		rxReq:     make([]rxRequest, t.Nodes()),
		rxNodes:   make([]uint64, (t.Nodes()+63)/64),
		qNodes:    make([]uint64, (t.Nodes()+63)/64),
		req:       routing.Request{Topo: t, VCs: p.VCs},
		slab:      newMsgSlab(t, p.VCs),
	}
	if p.VCs > 1 { // planCommit, the one-VC walk, keeps no record
		n.chWin = make([]chWinner, t.NumChannels())
	}
	n.numVCs = n.numNetVCs + t.Nodes()
	n.owner = make([]*message.Message, n.numVCs)
	n.slotOf = make([]int32, n.numVCs)
	n.downstream = make([]int32, n.numVCs)
	n.chOf = make([]int32, n.numVCs)
	n.vcSrc = make([]int32, n.numVCs)
	n.freed = make([]uint32, t.Nodes())
	n.chDim = make([]int32, t.NumChannels())
	n.chFlags = make([]uint32, t.NumChannels())
	for c := 0; c < t.NumChannels(); c++ {
		ch := topology.ChannelID(c)
		dst, src := int32(-1), int32(0)
		if t.ChannelExists(ch) {
			dst, src = int32(t.ChannelDst(ch)), int32(t.ChannelSrc(ch))
			n.chDim[c] = int32(t.ChannelDim(ch))
			n.chFlags[c] = t.RouteFlags(ch)
		}
		for v := 0; v < p.VCs; v++ {
			n.downstream[c*p.VCs+v] = dst
			n.chOf[c*p.VCs+v] = int32(c)
			n.vcSrc[c*p.VCs+v] = src
		}
	}
	for node := 0; node < t.Nodes(); node++ {
		n.downstream[n.numNetVCs+node] = int32(node)
		n.vcSrc[n.numNetVCs+node] = int32(node)
		n.chOf[n.numNetVCs+node] = int32(topology.None)
	}
	if mr, ok := p.Routing.(routing.MisroutingFAR); ok {
		n.maxDeroutes = mr.MaxDeroutes
	}
	for i := range n.rxRR {
		n.rxRR[i] = -1
		n.rxReq[i] = rxNone
	}
	for i := range n.chRR {
		n.chRR[i] = -1
	}
	return n, nil
}

// --- VC id space -----------------------------------------------------------

// NetVC returns the VC id for virtual channel v of physical channel ch.
func (n *Network) NetVC(ch topology.ChannelID, v int) message.VC {
	return message.VC(int(ch)*n.vcs + v)
}

// InjVC returns the VC id of node's injection channel.
func (n *Network) InjVC(node int) message.VC {
	return message.VC(n.numNetVCs + node)
}

// IsInjection reports whether vc is an injection VC.
func (n *Network) IsInjection(vc message.VC) bool { return int(vc) >= n.numNetVCs }

// VCChannel returns the physical channel of a network VC; it panics for
// injection VCs.
func (n *Network) VCChannel(vc message.VC) topology.ChannelID {
	if n.IsInjection(vc) {
		panic("network: VCChannel on injection VC")
	}
	return topology.ChannelID(int(vc) / n.vcs)
}

// VCIndex returns the virtual-channel index within its physical channel.
func (n *Network) VCIndex(vc message.VC) int {
	if n.IsInjection(vc) {
		return 0
	}
	return int(vc) % n.vcs
}

// Downstream returns the node holding vc's edge buffer: the channel's
// destination for network VCs, the node itself for injection VCs.
func (n *Network) Downstream(vc message.VC) int { return int(n.downstream[vc]) }

// TotalVCs returns the size of the VC id space (network VCs + injection
// VCs): the dense vertex universe a CWG builder should be sized for.
func (n *Network) TotalVCs() int { return n.numVCs }

// ResourceEpoch returns a counter that changes whenever the network's
// resource-wait state — VC ownership, blocked flags, candidate sets —
// changes. If two observations return the same epoch, the channel wait-for
// graph built from the network is identical at both points; flit movement
// within already-owned buffers does not bump it.
func (n *Network) ResourceEpoch() uint64 { return n.resEpoch }

// Owner returns the message currently owning vc, or nil.
func (n *Network) Owner(vc message.VC) *message.Message { return n.owner[vc] }

// VCString renders a VC id for logs and DOT output.
func (n *Network) VCString(vc message.VC) string {
	if n.IsInjection(vc) {
		return fmt.Sprintf("inj@%d", n.Downstream(vc))
	}
	ch := n.VCChannel(vc)
	return fmt.Sprintf("%s.v%d", n.topo.ChannelString(ch), n.VCIndex(vc))
}

// --- Workload interface ----------------------------------------------------

// Inject enqueues a new message at src's source queue and returns it.
func (n *Network) Inject(src, dst, length int) *message.Message {
	m := n.slab.alloc(message.Make(n.nextID, src, dst, length, n.now), n.topo.Distance(src, dst)+1)
	n.nextID++
	n.enqueue(src, m)
	n.trace(trace.Queued, m.ID, message.NoVC, src)
	return m
}

// trace emits a lifecycle event when tracing is enabled.
func (n *Network) trace(kind trace.Kind, id message.ID, vc message.VC, node int) {
	if n.p.Tracer != nil {
		n.p.Tracer.Trace(trace.Event{Cycle: n.now, Kind: kind, Msg: id, VC: vc, Node: node})
	}
}

// Now returns the current simulation cycle.
func (n *Network) Now() int64 { return n.now }

// ActiveMessages returns the messages currently holding network resources,
// sorted by message ID, so observers (detector snapshots, invariant failure
// output, incident post-mortems) iterate in a stable order independent of
// internal scheduling layout. The slice is owned by the network; callers
// must not retain it across Step calls.
//
// The view is updated, not rebuilt: retired messages are dropped from it in
// place and the messages injected since the last call, sorted among
// themselves, are merged in. IDs are issued at queueing, not injection, so
// those can sort anywhere in the view. The first call and the first after
// RestoreState find an empty view and sort everything.
func (n *Network) ActiveMessages() []*message.Message {
	if !n.activeDirty && n.activeByID != nil {
		return n.activeByID
	}
	n.activeDirty = false
	kept := n.activeByID[:0]
	for _, m := range n.activeByID {
		if !retired(m) {
			kept = append(kept, m)
		}
	}
	clear(n.activeByID[len(kept):])
	joined := n.joined[:0]
	for _, m := range n.active[n.activeSeen:] {
		if !retired(m) {
			joined = append(joined, m)
		}
	}
	n.activeSeen = len(n.active)
	slices.SortFunc(joined, msgIDOrder)
	// Merge from the back, so the view's own entries move at most once.
	i, j := len(kept)-1, len(joined)-1
	view := slices.Grow(kept, len(joined))[:len(kept)+len(joined)]
	for k := len(view) - 1; j >= 0; k-- {
		if i >= 0 && kept[i].ID > joined[j].ID {
			view[k] = kept[i]
			i--
		} else {
			view[k] = joined[j]
			j--
		}
	}
	clear(joined)
	n.joined = joined
	n.activeByID = view
	return view
}

// ActiveUnsorted returns the messages ActiveMessages does, in the network's
// internal order: it skips ActiveMessages' re-sort after a change of
// membership, for observers whose answer does not depend on the order. The
// slice is owned by the network; callers must not retain it across Step
// calls.
func (n *Network) ActiveUnsorted() []*message.Message { return n.active }

// msgIDOrder sorts messages by ID (injection order — IDs are issued
// monotonically and never reused).
func msgIDOrder(a, b *message.Message) int { return cmp.Compare(a.ID, b.ID) }

// ActiveCount returns the number of messages holding resources.
func (n *Network) ActiveCount() int { return len(n.active) }

// QueuedCount returns the number of messages waiting in source queues.
func (n *Network) QueuedCount() int { return n.queued }

// BlockedCount returns the number of active messages whose header was
// blocked during the last cycle's allocation phase.
func (n *Network) BlockedCount() int { return n.blocked }

// TotalInjected returns the number of messages injected since construction
// (a monotonic counter, unlike the measurement-windowed stats.Result).
func (n *Network) TotalInjected() int64 { return int64(n.nextID) }

// FlitsInNetwork returns the number of flits currently held in edge buffers.
func (n *Network) FlitsInNetwork() int64 {
	return n.InjectedFlits - n.DeliveredFlits - n.AbsorbedFlits - n.KilledFlits
}

// Params returns the construction parameters.
func (n *Network) Params() Params { return n.p }

// Topology returns the network graph.
func (n *Network) Topology() topology.Network { return n.topo }

// --- Cycle update -----------------------------------------------------------

// Step advances the simulation by one cycle: recovery drain, injection
// starts, header VC allocation, link arbitration, flit transfers, ejection
// and VC release, in four phase groups (see engine.go). With engine
// telemetry attached each group is timed.
func (n *Network) Step() {
	n.now++
	es := n.eng
	t := es.start()
	n.drainRecovering()
	n.startInjections()
	t = es.lap(0, t)
	n.allocatePlan()
	t = es.lap(1, t)
	n.arbitrateAndEject()
	t = es.lap(2, t)
	n.applyAndRelease()
	n.compactActive()
	es.lap(3, t)
	if n.p.CheckInvariants {
		if err := n.CheckInvariants(); err != nil {
			panic(err)
		}
	}
}

// retired reports whether m is finished — delivered, recovered or killed —
// with every owned VC released.
func retired(m *message.Message) bool {
	return (m.Status == message.Delivered || m.Status == message.Recovered ||
		m.Status == message.Killed) && m.Released == len(m.Hops)
}

// compactActive removes the messages the release phase retired, preserving
// the order of the survivors. Most cycles retire nothing and skip the pass.
func (n *Network) compactActive() {
	if n.retired == 0 {
		return
	}
	n.retired = 0
	out := n.active[:0]
	seen := n.activeSeen
	for i, m := range n.active {
		if !retired(m) {
			out = append(out, m)
		} else if i < seen {
			n.activeSeen--
		}
	}
	// Zero the tail so retired messages become collectable.
	clear(n.active[len(out):])
	n.active = out
	n.activeDirty = true
}

// prevChannel returns the channel the header last traversed, or
// topology.None while it is still in the injection VC.
func (n *Network) prevChannel(m *message.Message) topology.ChannelID {
	// The header resides in the last hop; if that is a network VC, its
	// channel is the last traversed one. chOf holds None for an injection VC.
	return topology.ChannelID(n.chOf[m.Hops[len(m.Hops)-1].VC])
}

// derouteCount counts nonminimal hops taken so far (misrouting support).
func derouteCount(t topology.Network, m *message.Message) int {
	minimal := t.Distance(m.Src, m.Dst)
	hops := len(m.Hops) - 1 // exclude injection VC
	if hops <= minimal {
		return 0
	}
	return hops - minimal
}

// acquire makes m the owner of vc, appended to its hop chain. A new empty
// hop is the one thing that can make a frozen worm movable again (see
// planGrant), so this is where Frozen is cleared.
func (n *Network) acquire(m *message.Message, vc message.VC) {
	n.owner[vc] = m
	n.slotOf[vc] = int32(len(m.Hops))
	m.Acquire(vc)
	m.Frozen = false
}

// requestRx asks for node's reception port on behalf of head VC vc, keeping
// the request only if it beats the node's best so far. The round-robin key is
// vc's cyclic distance past the pointer (the last granted head VC id, -1
// initially), in [1, numVCs]; distinct messages hold distinct head VCs, so
// keys are unique and the running minimum is order-independent.
func (n *Network) requestRx(node int, vc message.VC) {
	key := int32(vc) - n.rxRR[node]
	if key <= 0 {
		key += int32(n.numVCs)
	}
	if key < n.rxReq[node].key {
		n.rxReq[node] = rxRequest{key: key, vc: vc}
	}
}

// --- Deadlock recovery -------------------------------------------------------

// Absorb marks m as a deadlock victim to be removed from the network
// flit-by-flit (tail-first, RecoveryDrainRate flits per cycle), synthesizing
// a Disha-style recovery: the victim is counted as delivered out of band and
// its VCs return to the free pool as they drain. Called between cycles (by
// the detector), never from inside Step.
func (n *Network) Absorb(m *message.Message) {
	if m.Status != message.Active {
		return
	}
	m.Status = message.Recovering
	if m.Blocked {
		n.logRes(ResUnblock, m.ID, message.NoVC, m.Wants)
	}
	m.Blocked = false
	m.Wants = m.Wants[:0]
	n.resEpoch++
	n.trace(trace.RecoveryStart, m.ID, message.NoVC, -1)
	if n.p.RecoveryDrainRate == 0 {
		n.absorbFlits(m, m.Len-m.Consumed)
	}
}

// --- Validation ---------------------------------------------------------------

// CheckInvariants validates the state contract: flit conservation per
// message, exclusive and consistent VC ownership (owner and slot tables
// against every hop chain) and buffer capacity limits. Whether a cycle moved
// the right flits is the reference engine's question (refengine_test.go), not
// this one's. Messages are checked in stable ID order so failure output is
// reproducible. It is O(active messages × path length + VCs).
func (n *Network) CheckInvariants() error {
	seen := make(map[message.VC]message.ID, 64)
	for _, m := range n.ActiveMessages() {
		if m.Status == message.Recovered || m.Status == message.Killed {
			// recovered and killed messages may still be draining release
			continue
		}
		if err := m.CheckInvariants(); err != nil {
			return err
		}
		for i := m.Released; i < len(m.Hops); i++ {
			vc := m.Hops[i].VC
			if prev, dup := seen[vc]; dup {
				return fmt.Errorf("network: VC %s owned by both msg %d and msg %d",
					n.VCString(vc), prev, m.ID)
			}
			seen[vc] = m.ID
			if n.owner[vc] != m {
				return fmt.Errorf("network: owner table for %s disagrees with msg %d path",
					n.VCString(vc), m.ID)
			}
			if n.slotOf[vc] != int32(i) {
				return fmt.Errorf("network: slot table for %s says %d, msg %d holds it at hop %d",
					n.VCString(vc), n.slotOf[vc], m.ID, i)
			}
			if m.Hops[i].Occ > n.depth {
				return fmt.Errorf("network: buffer overflow on %s: %d > %d",
					n.VCString(vc), m.Hops[i].Occ, n.depth)
			}
		}
	}
	for vc, m := range n.owner {
		if m == nil {
			continue
		}
		if _, ok := seen[message.VC(vc)]; !ok && (m.Status == message.Active || m.Status == message.Recovering) {
			return fmt.Errorf("network: VC %s owned by msg %d not found on its path range",
				n.VCString(message.VC(vc)), m.ID)
		}
	}
	return nil
}
