package network

// The reference engine: the cycle DESIGN §2 describes, written for clarity
// instead of speed. Every active header is re-routed every cycle through the
// public routing.Algorithm; a cycle's requests are gathered into sorted
// slices and granted by a linear round-robin scan; a message is a plain
// struct owning a []refHop path. There are no bitmaps, slabs, epochs,
// parked headers, frozen worms or slot or channel lookup tables, and
// nothing is shared with the engine but the topology, routing, rng and
// traffic packages and the message.VC numbering (network VCs ch×VCs+v, then
// one injection VC per node). engine_equiv_test.go steps it in lockstep with
// the engine.
//
// A cycle: absorb recovering victims' flits; inject one queued message per
// node whose injection VC is free; in active order, give each header its
// first free candidate (or block it on the owned set) and register its worm's
// transfer and reception requests from pre-cycle occupancy; grant one
// transfer per physical channel and one ejection per node; stream source
// flits; release drained VCs; retire.

import (
	"slices"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

type refStatus int8

const (
	refQueued refStatus = iota
	refActive
	refDelivered
	refRecovering
	refRecovered
	refKilled
)

type refHop struct {
	vc            message.VC
	occ, departed int
}

type refMsg struct {
	id                      message.ID
	src, dst, length        int
	status                  refStatus
	created, injected, done int64
	path                    []refHop
	released                int
	srcRemaining, consumed  int
	curDim                  int
	crossed                 uint32
	blocked                 bool
	blockedSince            int64
	wants                   []message.VC
}

// finished reports a delivered, recovered or killed message whose VCs are
// all released.
func (m *refMsg) finished() bool {
	return (m.status == refDelivered || m.status == refRecovered || m.status == refKilled) &&
		m.released == len(m.path)
}

// refCounters are the engine's monotonic counters, by the same names.
type refCounters struct {
	DeliveredCount, RecoveredCount, KilledCount, UnroutableCount int64
	InjectedFlits, DeliveredFlits, AbsorbedFlits, KilledFlits    int64
}

type refNet struct {
	topo              topology.Network
	algo              routing.Algorithm
	vcs, depth, drain int

	now     int64
	nextID  message.ID
	owner   []*refMsg   // by VC id
	chRR    []int       // per channel: last granted VC index, -1 initially
	rxRR    []int       // per node: last granted head VC id, -1 initially
	queues  [][]*refMsg // per node source queue
	active  []*refMsg   // injection order
	retired []*refMsg   // retired during the last step, in retirement order
	blocked int         // headers blocked in the last allocation
	refCounters

	faulty                   bool // a fault setter has been called: routing uses the fault fallback
	chDown, vcDown, nodeDown []bool
}

func newRefNet(p Params) *refNet {
	t := p.Topo
	r := &refNet{topo: t, algo: p.Routing, vcs: p.VCs, depth: p.BufferDepth, drain: p.RecoveryDrainRate,
		owner:  make([]*refMsg, t.NumChannels()*p.VCs+t.Nodes()),
		chRR:   make([]int, t.NumChannels()),
		rxRR:   make([]int, t.Nodes()),
		queues: make([][]*refMsg, t.Nodes()),
		chDown: make([]bool, t.NumChannels()), vcDown: make([]bool, t.NumChannels()*p.VCs),
		nodeDown: make([]bool, t.Nodes())}
	for _, rr := range [][]int{r.chRR, r.rxRR} {
		for i := range rr {
			rr[i] = -1
		}
	}
	return r
}

func (r *refNet) injVC(node int) message.VC { return message.VC(r.topo.NumChannels()*r.vcs + node) }

// channel returns vc's physical channel, or topology.None for an injection VC.
func (r *refNet) channel(vc message.VC) topology.ChannelID {
	if int(vc) >= r.topo.NumChannels()*r.vcs {
		return topology.None
	}
	return topology.ChannelID(int(vc) / r.vcs)
}

// node returns the router holding vc's buffer.
func (r *refNet) node(vc message.VC) int {
	if ch := r.channel(vc); ch != topology.None {
		return r.topo.ChannelDst(ch)
	}
	return int(vc) - r.topo.NumChannels()*r.vcs
}

func (r *refNet) alive(ch topology.ChannelID, v int) bool {
	return !r.chDown[ch] && !r.nodeDown[r.topo.ChannelSrc(ch)] && !r.nodeDown[r.topo.ChannelDst(ch)] &&
		!r.vcDown[int(ch)*r.vcs+v]
}

func (r *refNet) Inject(src, dst, length int) *refMsg {
	m := &refMsg{id: r.nextID, src: src, dst: dst, length: length, created: r.now, srcRemaining: length, curDim: -1}
	r.nextID++
	r.queues[src] = append(r.queues[src], m)
	return m
}

func (r *refNet) step() {
	r.now++
	r.retired = r.retired[:0]
	if r.drain > 0 {
		for _, m := range r.active {
			if m.status == refRecovering {
				r.absorbFlits(m, r.drain)
			}
		}
	}
	for node, q := range r.queues {
		if len(q) == 0 || r.nodeDown[node] {
			continue
		}
		m := q[0]
		if r.nodeDown[m.dst] {
			r.queues[node] = q[1:]
			m.status, m.done, m.consumed, m.srcRemaining = refKilled, r.now, m.length, 0
			r.KilledCount++
			r.retired = append(r.retired, m)
			continue
		}
		if vc := r.injVC(node); r.owner[vc] == nil {
			r.queues[node] = q[1:]
			r.acquire(m, vc)
			m.status, m.injected = refActive, r.now
			r.active = append(r.active, m)
		}
	}

	// Allocation and requests, one worm at a time in active order: xfers
	// holds per channel the indexes of the VCs a flit asks to move into, rx
	// per node the head VCs asking to eject.
	xfers := make([][]int, r.topo.NumChannels())
	rx := make([][]message.VC, r.topo.Nodes())
	r.blocked = 0
	for _, m := range r.active {
		if m.status != refActive {
			continue
		}
		r.allocate(m)
		if m.status != refActive {
			continue
		}
		for i := m.released; i+1 < len(m.path); i++ {
			if next := m.path[i+1].vc; m.path[i].occ > 0 && m.path[i+1].occ < r.depth {
				xfers[r.channel(next)] = append(xfers[r.channel(next)], int(next)%r.vcs)
			}
		}
		if head := m.path[len(m.path)-1]; head.occ > 0 && r.node(head.vc) == m.dst {
			rx[m.dst] = append(rx[m.dst], head.vc)
		}
	}

	// One flit per physical channel, then one per reception port.
	for ch, reqs := range xfers {
		if len(reqs) > 0 {
			r.chRR[ch] = arbitrateOracle(r.vcs, int32(r.chRR[ch]), reqs)
			r.move(message.VC(ch*r.vcs + r.chRR[ch]))
		}
	}
	for node, heads := range rx {
		if len(heads) > 0 {
			vc := arbitrateRxOracle(len(r.owner), int32(r.rxRR[node]), heads)
			r.rxRR[node] = int(vc)
			r.eject(r.owner[vc])
		}
	}

	for _, m := range r.active {
		if m.status == refActive && m.srcRemaining > 0 && m.released == 0 && m.path[0].occ < r.depth {
			m.path[0].occ++
			m.srcRemaining--
			r.InjectedFlits++
		}
		for m.released < len(m.path) && m.path[m.released].departed == m.length {
			r.owner[m.path[m.released].vc] = nil
			m.released++
		}
		if m.finished() {
			r.retired = append(r.retired, m)
		}
	}
	r.active = slices.DeleteFunc(r.active, (*refMsg).finished)
}

func (r *refNet) acquire(m *refMsg, vc message.VC) {
	r.owner[vc] = m
	m.path = append(m.path, refHop{vc: vc})
}

// allocate gives a header waiting at the head of its buffer, short of its
// destination, the first free VC its routing offers; with none free it blocks
// on the whole (owned) set.
func (r *refNet) allocate(m *refMsg) {
	head := m.path[len(m.path)-1]
	here := r.node(head.vc)
	if head.departed != 0 || head.occ == 0 || here == m.dst {
		return
	}
	cands := r.route(m, here)
	if len(cands) == 0 {
		r.UnroutableCount++
		r.Kill(m)
		return
	}
	for _, vc := range cands {
		if r.owner[vc] == nil {
			r.acquire(m, vc)
			m.blocked, m.wants = false, nil
			return
		}
	}
	if !m.blocked {
		m.blocked, m.blockedSince = true, r.now
	}
	m.wants = cands
	r.blocked++
}

// route is the routing relation's candidate set for m's header at node here;
// once a fault setter has run, dead candidates are dropped and a header left
// with none falls back to any surviving output within the hop budget.
func (r *refNet) route(m *refMsg, here int) []message.VC {
	prev := r.channel(m.path[len(m.path)-1].vc)
	req := &routing.Request{Topo: r.topo, Node: here, Dst: m.dst, VCs: r.vcs, CurDim: m.curDim,
		Crossed: m.crossed, PrevCh: prev, Deroutes: max(0, len(m.path)-1-r.topo.Distance(m.src, m.dst))}
	cands := r.algo.Candidates(req, nil)
	if r.faulty {
		cands = routing.FilterAlive(cands, r.alive)
		if len(cands) == 0 && len(m.path)-1 <= max(4*r.topo.Nodes(), 64) {
			cands, _ = routing.Surviving(r.topo, here, prev, r.vcs, r.alive, nil, nil)
			if len(cands) == 0 && prev != topology.None {
				cands, _ = routing.Surviving(r.topo, here, topology.None, r.vcs, r.alive, nil, nil)
			}
		}
	}
	vcs := make([]message.VC, len(cands))
	for i, c := range cands {
		vcs[i] = message.VC(int(c.Ch)*r.vcs + c.VC)
	}
	return vcs
}

// move advances one flit of vc's owner into vc from the hop before it.
func (r *refNet) move(vc message.VC) {
	m := r.owner[vc]
	i := m.released + slices.IndexFunc(m.path[m.released:], func(h refHop) bool { return h.vc == vc })
	from, to := &m.path[i-1], &m.path[i]
	if to.departed == 0 && to.occ == 0 { // the header crosses vc's channel
		ch := r.channel(vc)
		m.curDim = r.topo.ChannelDim(ch)
		m.crossed |= r.topo.RouteFlags(ch)
	}
	from.occ--
	from.departed++
	to.occ++
}

func (r *refNet) eject(m *refMsg) {
	head := &m.path[len(m.path)-1]
	head.occ--
	head.departed++
	m.consumed++
	r.DeliveredFlits++
	if m.consumed == m.length {
		m.status, m.done, m.blocked, m.wants = refDelivered, r.now, false, nil
		r.DeliveredCount++
	}
}

// absorbFlits removes up to k of a victim's flits, source remainder first,
// then from the tail-most occupied buffer.
func (r *refNet) absorbFlits(m *refMsg, k int) {
	for ; k > 0 && m.consumed < m.length; k-- {
		if m.srcRemaining > 0 {
			m.srcRemaining--
			m.consumed++
			continue
		}
		i := slices.IndexFunc(m.path[m.released:], func(h refHop) bool { return h.occ > 0 })
		if i < 0 {
			break
		}
		m.path[m.released+i].occ--
		m.path[m.released+i].departed++
		m.consumed++
		r.AbsorbedFlits++
	}
	if m.consumed == m.length {
		m.status, m.done = refRecovered, r.now
		r.RecoveredCount++
		for i := m.released; i < len(m.path); i++ {
			m.path[i].departed = m.length
		}
	}
}

func (r *refNet) Absorb(m *refMsg) {
	if m.status != refActive {
		return
	}
	m.status, m.blocked, m.wants = refRecovering, false, nil
	if r.drain == 0 {
		r.absorbFlits(m, m.length-m.consumed)
	}
}

func (r *refNet) Kill(m *refMsg) {
	if m.status != refActive && m.status != refRecovering {
		return
	}
	for i := m.released; i < len(m.path); i++ {
		r.KilledFlits += int64(m.path[i].occ)
		m.consumed += m.path[i].occ
		m.path[i].occ, m.path[i].departed = 0, m.length
	}
	m.consumed += m.srcRemaining
	m.srcRemaining = 0
	m.status, m.done, m.blocked, m.wants = refKilled, r.now, false, nil
	r.KilledCount++
}

// setFault sets one fault flag. Like the engine's setters it is idempotent,
// and any call turns on the fault-aware routing. A failure kills every
// message left holding an unusable VC or addressed to a failed node.
func (r *refNet) setFault(flag *bool, down bool) {
	r.faulty = true
	if *flag == down {
		return
	}
	*flag = down
	for _, m := range r.active {
		if down && (r.nodeDown[m.dst] || slices.ContainsFunc(m.path[m.released:], r.unusable)) {
			r.Kill(m)
		}
	}
}

func (r *refNet) unusable(h refHop) bool {
	if ch := r.channel(h.vc); ch != topology.None {
		return !r.alive(ch, int(h.vc)%r.vcs)
	}
	return r.nodeDown[r.node(h.vc)]
}

func (r *refNet) SetLink(ch topology.ChannelID, down bool) { r.setFault(&r.chDown[ch], down) }
func (r *refNet) SetVC(ch topology.ChannelID, v int, down bool) {
	r.setFault(&r.vcDown[int(ch)*r.vcs+v], down)
}
func (r *refNet) SetNode(node int, down bool) { r.setFault(&r.nodeDown[node], down) }
