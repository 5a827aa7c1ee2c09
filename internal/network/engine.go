package network

// The cycle engine: Step runs four phase groups in order — recovery drain and
// injection starts, VC allocation and transfer planning, arbitration and
// ejection, transfer commits and VC release — each a kernel over the
// network's tables. Three bitmaps say where a cycle has work, so a phase
// scans set bits instead of every channel or node: chBits marks a channel
// with a pending transfer request, rxNodes a node with a pending reception
// request, qNodes a source queue to visit (see scanQueue). chBits and rxNodes
// are zero between cycles; qNodes persists with the queues.
//
// A transfer request is one bit per VC in its channel's word, and a grant is
// the bare id of the VC it fills: owner and slotOf recover the message and
// the hop. Winners are order-independent — each channel's requesters target
// distinct VCs, each node's deliverers hold distinct head VCs, and a commit
// only moves per-hop flit counts — so the ascending bit scans fix the order
// of the externally visible events (trace, ResourceLog, OnDeliver) and
// nothing else.

import (
	"math/bits"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
)

// scanQueue reports whether startInjections has to visit node's source queue
// when it holds something; the node's bit in qNodes is set exactly when both
// hold. On a healthy network that is while the injection VC is free: an owned
// one admits nothing until applyAndRelease frees it, which marks the node
// again, so saturation does not pay for a scan of every backlogged node. A
// fault set makes every waiting queue worth the visit: a dead destination's
// message is dropped at the queue head whatever the injection VC is doing.
func (n *Network) scanQueue(node int) bool {
	return n.owner[n.InjVC(node)] == nil || n.faults != nil
}

// markQueue sets node's bit in qNodes.
func (n *Network) markQueue(node int) { n.qNodes[node>>6] |= 1 << (node & 63) }

// markQueues rebuilds qNodes from the queues, for the moments scanQueue's
// answer changes under every node at once.
func (n *Network) markQueues() {
	clear(n.qNodes)
	for node := range n.queues {
		if n.queues[node].len() > 0 && n.scanQueue(node) {
			n.markQueue(node)
		}
	}
}

// enqueue appends m to node's source queue.
func (n *Network) enqueue(node int, m *message.Message) {
	n.queues[node].push(m)
	n.queued++
	if n.scanQueue(node) {
		n.markQueue(node)
	}
}

// deliver hands a retired message to OnDeliver, if set.
func (n *Network) deliver(m *message.Message) {
	if n.OnDeliver != nil {
		n.OnDeliver(m)
	}
}

// --- Phase kernels -----------------------------------------------------------

// drainRecovering absorbs flits of recovering messages.
func (n *Network) drainRecovering() {
	rate := n.p.RecoveryDrainRate
	if rate <= 0 {
		return
	}
	for _, m := range n.active {
		if m.Status == message.Recovering {
			n.absorbFlits(m, rate)
		}
	}
}

// absorbFlits removes up to k flits of m, tail-first (source remainder
// first, then the earliest owned buffer), so VCs free in acquisition order
// as a draining worm's would.
func (n *Network) absorbFlits(m *message.Message, k int) {
	for k > 0 && m.Consumed < m.Len {
		if m.SrcRemaining > 0 {
			m.SrcRemaining--
			m.Consumed++
			k--
			continue
		}
		// Find the tail-most occupied slot.
		i := m.Released
		for i < len(m.Hops) && m.Hops[i].Occ == 0 {
			// An owned but empty slot between tail and head can
			// only be the not-yet-entered head allocation; skip.
			i++
		}
		if i == len(m.Hops) {
			break
		}
		m.Hops[i].Occ--
		m.Hops[i].Departed++
		m.Consumed++
		n.AbsorbedFlits++
		k--
	}
	if m.Consumed == m.Len {
		m.Status = message.Recovered
		m.DeliverTime = n.now
		n.RecoveredCount++
		n.trace(trace.RecoveryDone, m.ID, message.NoVC, -1)
		// Any owned slots the drain skipped (allocated, never entered)
		// are releasable now; mark them fully departed so the release
		// phase frees them.
		for i := m.Released; i < len(m.Hops); i++ {
			m.Hops[i].Departed = int32(m.Len)
		}
	}
}

// startInjections moves queued messages into free injection VCs, visiting
// only the nodes qNodes marks, in ascending node order.
func (n *Network) startInjections() {
	for i, word := range n.qNodes {
		for ; word != 0; word &= word - 1 {
			node := i<<6 + bits.TrailingZeros64(word)
			q := &n.queues[node]
			m := q.peek()
			if n.faults != nil {
				if n.faults.nodeDown[node] {
					continue // a dead router injects nothing
				}
				if n.faults.nodeDown[m.Dst] {
					// Destination is down: drop rather than inject a
					// message that can never be consumed.
					n.dequeue(q, node)
					n.dropQueuedDead(m, node)
					continue
				}
			}
			vc := n.InjVC(node)
			if n.owner[vc] != nil {
				continue
			}
			n.acquire(m, vc)
			n.dequeue(q, node)
			m.Status = message.Active
			m.InjectTime = n.now
			n.active = append(n.active, m)
			n.activeDirty = true
			n.resEpoch++
			n.logRes(ResAcquire, m.ID, vc, nil)
			n.trace(trace.Injected, m.ID, vc, node)
		}
	}
}

// dequeue pops the head of node's source queue q, clearing the node's qNodes
// bit when that empties it or the head just took the injection VC.
func (n *Network) dequeue(q *msgQueue, node int) {
	q.pop()
	n.queued--
	if q.len() == 0 || !n.scanQueue(node) {
		n.qNodes[node>>6] &^= 1 << (node & 63)
	}
}

// allocatePlan is the per-worm half of a cycle before arbitration, one pass
// over the active list: VC allocation for the header, then the worm's
// flit-movement requests. Per-message interleaving is safe because plan reads
// only the worm's own hops and writes only request state, while allocate
// reads only the owner table and the fault set — so the events come out in
// the order two separate passes would emit them.
//
// A header that is already blocked is parked: Wants is its candidate set,
// exact until the fault set changes, so it is re-routed only once a wanted
// VC is free or the fault generation has moved. Re-routing a parked header
// any earlier would rebuild the same Wants and emit nothing. A frozen worm
// (see plan) skips the walk the same way, but not the parked check: the
// blocked count and wake-on-free need it.
func (n *Network) allocatePlan() {
	n.blocked = 0
	for _, m := range n.active {
		if m.Status != message.Active {
			continue
		}
		if m.Blocked && m.WantsGen == n.faultGen && !n.anyFree(m.Wants) {
			n.blocked++
		} else {
			n.allocate(m)
			if m.Status != message.Active {
				continue // killed as unroutable
			}
		}
		if m.Frozen {
			continue
		}
		if !n.plan(m) {
			m.Frozen = true
		}
	}
}

// allocate routes m's header if it sits at the head of its buffer and tries
// to allocate the first free candidate VC; failing that the message is
// marked blocked with its candidate set recorded (the CWG dashed arcs).
func (n *Network) allocate(m *message.Message) {
	head := m.Hops[len(m.Hops)-1]
	if head.Departed != 0 || head.Occ == 0 {
		return // header already departed or not yet arrived
	}
	here := int(n.downstream[head.VC])
	if here == m.Dst {
		return // ejecting; reception handled by arbitrateAndEject
	}
	cands := n.route(m, here)
	if len(cands) == 0 {
		// No continuation: the routing relation has none for this
		// header (a disconnected pair on a degraded or irregular
		// graph), nothing live survives the fault set, or the
		// misroute budget is spent. Drop with a counted stat instead
		// of spinning forever.
		n.killUnroutable(m, here)
		return
	}
	for _, c := range cands {
		vc := n.NetVC(c.Ch, c.VC)
		if n.owner[vc] == nil {
			n.acquire(m, vc)
			n.resEpoch++
			if m.Blocked {
				n.logRes(ResUnblock, m.ID, message.NoVC, m.Wants)
				m.Blocked = false
				m.Wants = m.Wants[:0]
				n.trace(trace.Unblocked, m.ID, vc, here)
			}
			n.logRes(ResAcquire, m.ID, vc, nil)
			n.trace(trace.Allocated, m.ID, vc, here)
			return
		}
	}
	newly := !m.Blocked
	if newly {
		m.Blocked = true
		m.BlockedSince = n.now
		n.resEpoch++
		n.trace(trace.Blocked, m.ID, message.NoVC, here)
	}
	m.Wants = n.appendVCs(m.Wants[:0], cands)
	m.WantsGen = n.faultGen
	if newly {
		n.logRes(ResBlock, m.ID, message.NoVC, m.Wants)
	}
	n.blocked++
}

// appendVCs appends the VC ids of cands to dst.
func (n *Network) appendVCs(dst []message.VC, cands []routing.Candidate) []message.VC {
	for _, c := range cands {
		dst = append(dst, n.NetVC(c.Ch, c.VC))
	}
	return dst
}

// anyFree reports whether any of vcs is unowned.
func (n *Network) anyFree(vcs []message.VC) bool {
	for _, vc := range vcs {
		if n.owner[vc] == nil {
			return true
		}
	}
	return false
}

// route returns the live candidate set for m's header at node here, in
// selection order: the routing relation's candidates, restricted to the
// surviving graph when faults are present. Empty means m is unroutable. The
// result aliases the network's scratch and is valid until the next route
// call.
func (n *Network) route(m *message.Message, here int) []routing.Candidate {
	req := &n.req
	req.Node = here
	req.Dst = m.Dst
	req.CurDim = m.CurDim
	req.Crossed = m.Crossed
	req.PrevCh = n.prevChannel(m)
	if n.maxDeroutes > 0 {
		req.Deroutes = derouteCount(n.topo, m)
	}
	n.candBuf = n.p.Routing.Candidates(req, n.candBuf[:0])
	if n.faults == nil {
		return n.candBuf
	}
	return n.faultCandidates(m, here, req.PrevCh, n.candBuf)
}

// plan registers m's flit-movement requests for this cycle from pre-cycle
// state: per physical channel for link traversals (a bit in the channel's
// request word) and per node for ejection at the destination. It reports
// whether m can move at all — a request made, or a source flit due in
// applyAndRelease.
//
// A worm for which it reports false is frozen. Every transfer is between two
// hops of the same worm, a worm with no request gets no commit and no
// ejection, so none of its Occ or Departed counts change and nothing is
// released: the next walk would find the same. Only a new hop changes that,
// and acquire clears the flag. Absorb and the fault kills change Status
// instead, which every skip tests first.
//
// The pair loop computes eligibility from sign bits and ORs it in whether it
// is 0 or 1: an `if` here is data-dependent and mispredicts on every live
// worm, and that — not the frozen worms — was the walk's cost.
func (n *Network) plan(m *message.Message) bool {
	depth, vcs := n.depth, int32(n.vcs)
	hops := m.Hops[m.Released:]
	var live uint64
	occ := hops[0].Occ
	// Only hop 0 is an injection VC, so next is a network VC.
	for _, next := range hops[1:] {
		// occ > 0 && next.Occ < depth
		e := uint64(uint32(-occ)>>31) & uint64(uint32(next.Occ-depth)>>31)
		occ = next.Occ
		live |= e
		ch := n.chOf[next.VC]
		n.chReq[ch] |= e << (uint32(int32(next.VC)-ch*vcs) & 63)
		n.chBits[ch>>6] |= e << (uint32(ch) & 63)
	}
	if head := hops[len(hops)-1]; head.Occ > 0 && int(n.downstream[head.VC]) == m.Dst {
		// Flits at the head buffer of a message whose header has
		// reached the destination: request the reception channel.
		n.requestRx(m.Dst, head.VC)
		n.rxNodes[m.Dst>>6] |= 1 << (m.Dst & 63)
		return true
	}
	return live != 0 || n.sourceFlitDue(m)
}

// sourceFlitDue reports whether m's source streams a flit into the injection
// buffer this cycle: one is left, the buffer has room and is still owned.
func (n *Network) sourceFlitDue(m *message.Message) bool {
	return m.SrcRemaining > 0 && m.Hops[0].Occ < n.depth && m.Released == 0
}

// arbitrateAndEject grants and commits one transfer per requested physical
// channel, then one ejection per requested reception port.
func (n *Network) arbitrateAndEject() {
	// Grant per physical channel: round-robin over VC index. Winners are
	// order-independent (one requester per VC), so the scan's ascending
	// channel order is as good as any.
	for i, word := range n.chBits {
		n.chBits[i] = 0
		for ; word != 0; word &= word - 1 {
			ch := i<<6 + bits.TrailingZeros64(word)
			reqs := n.chReq[ch]
			n.chReq[ch] = 0
			v := grantVC(reqs, n.chRR[ch])
			n.chRR[ch] = int32(v)
			n.commit(n.NetVC(topology.ChannelID(ch), v))
		}
	}
	// Grant reception: the head VC that follows the node's round-robin
	// pointer, in ascending node order.
	for i, word := range n.rxNodes {
		n.rxNodes[i] = 0
		for ; word != 0; word &= word - 1 {
			node := i<<6 + bits.TrailingZeros64(word)
			vc := n.rxReq[node].vc
			n.rxReq[node] = rxNone
			n.rxRR[node] = int32(vc)
			n.eject(n.owner[vc])
		}
	}
}

// eject consumes one flit of m at its destination.
func (n *Network) eject(m *message.Message) {
	head := &m.Hops[len(m.Hops)-1]
	head.Occ--
	head.Departed++
	m.Consumed++
	n.DeliveredFlits++
	if m.Consumed == m.Len {
		m.Status = message.Delivered
		m.DeliverTime = n.now
		if m.Blocked {
			n.logRes(ResUnblock, m.ID, message.NoVC, m.Wants)
			m.Blocked = false
			n.resEpoch++
		}
		m.Wants = nil
		n.DeliveredCount++
		n.trace(trace.Delivered, m.ID, message.NoVC, m.Dst)
	}
}

// applyAndRelease streams each active message's source flit into its
// injection buffer, frees the VCs whose buffers the tail has fully drained
// and retires the message when complete, in one pass. A frozen worm has
// nothing to stream or release (see plan).
func (n *Network) applyAndRelease() {
	for _, m := range n.active {
		if m.Status == message.Active {
			if m.Frozen {
				continue
			}
			// Source flits flow on post-transfer occupancy, so a flit
			// entering the injection buffer this cycle cannot also traverse
			// a link this cycle: one flit per cycle (dedicated channel, no
			// arbitration).
			if n.sourceFlitDue(m) {
				m.Hops[0].Occ++
				m.SrcRemaining--
				n.InjectedFlits++
			}
		}
		for m.Released < len(m.Hops) && m.Hops[m.Released].Departed == int32(m.Len) {
			vc := m.Hops[m.Released].VC
			n.logRes(ResRelease, m.ID, vc, nil)
			n.owner[vc] = nil
			if n.IsInjection(vc) && n.queues[m.Src].len() > 0 {
				// The queue stopped being scanned when the VC was taken
				// (see scanQueue).
				n.markQueue(m.Src)
			}
			m.Released++
			n.resEpoch++
		}
		if retired(m) {
			n.retired++
			n.deliver(m)
		}
	}
}
