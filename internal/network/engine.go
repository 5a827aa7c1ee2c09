package network

// The cycle engine: Step runs four phase groups in order — recovery drain and
// injection starts, VC allocation and flit transfers, reception arbitration
// and ejection, source streaming and VC release — each a kernel over the
// network's tables. Two bitmaps say where a cycle has work, so a phase scans
// set bits instead of every node: rxNodes marks a node with a pending
// reception request, qNodes a source queue to visit (see scanQueue). rxNodes
// is zero between cycles; qNodes persists with the queues.
//
// A transfer commits inside its worm's walk: planGrant on a multi-VC network,
// planCommit on a one-VC one, where a channel's one VC has one requester and
// needs no arbitration. On a multi-VC network a physical channel keeps this
// cycle's running winner (chWin, chRR), as a reception port keeps its best
// request (rxReq): a later requester whose round-robin key is smaller undoes
// the holder's move and makes its own. A new requester can make only itself
// the winner, never an earlier loser, so the final grants are the ones an
// arbiter over all of a cycle's requests would make, in any walk order.
// Commits emit no event and ejections follow in ascending node order, so the
// order of the externally visible events (trace, ResourceLog, OnDeliver) is
// fixed by the state.

import (
	"math/bits"

	"flexsim/internal/message"
	"flexsim/internal/routing"
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

// allocatePlan is the per-worm half of a cycle before reception, one pass
// over the active list: VC allocation for the header, then the worm's flit
// moves. Per-message interleaving is safe because planGrant and planCommit
// decide on the worm's own pre-cycle hops and change another worm's only to
// undo a move that worm made this cycle, while allocate reads only the owner
// table, the fault set and the worm's own head — so the events come out in
// the order two separate passes would emit them.
//
// A header that is already blocked is parked: Wants is its candidate set,
// exact until the fault set changes, so it is re-routed only once a wanted
// VC is free or the fault generation has moved. Re-routing a parked header
// any earlier would rebuild the same Wants and emit nothing. A frozen worm
// (see planGrant) skips the walk the same way, but not the parked check: the
// blocked count and wake-on-free need it.
func (n *Network) allocatePlan() {
	n.blocked = 0
	for _, m := range n.active {
		if m.Status != message.Active {
			continue
		}
		if m.Blocked && m.WantsGen == n.faultGen && n.parked(m) {
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
		var moves bool
		if n.vcs == 1 {
			moves = n.planCommit(m)
		} else {
			moves = n.planGrant(m)
		}
		m.Frozen = !moves
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
	m.WaitRouter, m.WaitFreed = int32(here), n.freed[here]
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

// parked reports whether every VC blocked header m wants is still owned.
// Each want is an output VC of m.WaitRouter, and only applyAndRelease frees a
// VC, counting it in its router's freed: while that count is the one m last
// saw, nothing m wants has been freed, and Wants is not scanned. A scan that
// finds every want owned again brings m up to the count.
func (n *Network) parked(m *message.Message) bool {
	f := n.freed[m.WaitRouter]
	if f == m.WaitFreed {
		return true
	}
	if n.anyFree(m.Wants) {
		return false
	}
	m.WaitFreed = f
	return true
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

// planGrant moves m's flits for this cycle on a multi-VC network and
// requests m's reception port, deciding each from pre-cycle state. It reports
// whether m can move at all — an eligible transfer, granted or not, a
// reception request, or a source flit due in applyAndRelease.
//
// A worm for which it reports false is frozen. Every transfer is between two
// hops of the same worm, a worm with no eligible transfer gets no commit and
// no ejection, so none of its Occ or Departed counts change and nothing is
// released: the next walk would find the same. Only a new hop changes that,
// and acquire clears the flag. Absorb and the fault kills change Status
// instead, which every skip tests first. A requester that loses its channel
// stays unfrozen: it asks again next cycle.
//
// The walk goes from head to tail, carrying each pair's downstream pre-cycle
// occupancy from the pair ahead, as planCommit's does. The first eligible
// requester of channel ch in a cycle moves its flit at once, stamps chWin[ch]
// with the cycle and the pre-cycle chRR[ch] and stores its VC index in
// chRR[ch]; a later one goes to contend. Unlike planCommit's, the walk
// branches on eligibility: a masked, branch-free pair touches its channel's
// record whether it moves or not, and those misses cost more than the
// mispredictions. Only the head pair can move a header, so CurDim/Crossed are
// stamped after the walk, once the state they replace is saved in the head
// channel's record for an undo.
func (n *Network) planGrant(m *message.Message) bool {
	depth, vcs, now := n.depth, int32(n.vcs), n.now
	hops := m.Hops[m.Released:]
	head := &hops[len(hops)-1]
	headOcc := head.Occ
	live := false
	occ := headOcc // the pair's downstream hop, before this cycle's moves
	for i := len(hops) - 1; i > 0; i-- {
		from, to := &hops[i-1], &hops[i]
		prev := from.Occ
		eligible := prev > 0 && occ < depth
		occ = prev
		if !eligible {
			continue
		}
		live = true
		// Only hop 0 is an injection VC, so to is a network VC.
		ch := n.chOf[to.VC]
		w := &n.chWin[ch]
		if w.cycle == now {
			n.contend(m, from, to, ch)
			continue
		}
		from.Occ--
		from.Departed++
		to.Occ++
		w.cycle = now
		w.ptr = n.chRR[ch]
		n.chRR[ch] = int32(to.VC) - ch*vcs
	}
	if headOcc == 0 && head.Occ > 0 && head.Departed == 0 {
		// The header just entered head's channel.
		ch := n.chOf[head.VC]
		w := &n.chWin[ch]
		w.curDim, w.crossed = int32(m.CurDim), m.Crossed
		m.CurDim = int(n.chDim[ch])
		m.Crossed |= n.chFlags[ch]
	}
	if headOcc > 0 && int(n.downstream[head.VC]) == m.Dst {
		// Flits at the head buffer of a message whose header has
		// reached the destination: request the reception channel.
		n.requestRx(m.Dst, head.VC)
		n.rxNodes[m.Dst>>6] |= 1 << (m.Dst & 63)
		return true
	}
	// With nothing eligible, nothing of m's moved.
	return live || n.sourceFlitDue(m)
}

// contend settles a later request for channel ch in this cycle: m's flit
// from from into to, against the holder, chRR[ch]. A key is a VC index's
// cyclic distance past the pre-cycle pointer chWin[ch].ptr, in [1, VCs], and
// keys are unique, since a VC has one owner; the smaller wins. Winning undoes
// the holder's move, found through owner and slotOf, and makes m's. An undone
// move that carried a header gets the header's saved CurDim/Crossed back
// unless its worm is m, which stamps only after its walk.
func (n *Network) contend(m *message.Message, from, to *message.Hop, ch int32) {
	w := &n.chWin[ch]
	v := int32(to.VC) - ch*int32(n.vcs)
	held := n.chRR[ch]
	if n.rrKey(v, w.ptr) > n.rrKey(held, w.ptr) {
		return
	}
	hvc := to.VC + message.VC(held-v)
	hm := n.owner[hvc]
	i := n.slotOf[hvc]
	hfrom, hto := &hm.Hops[i-1], &hm.Hops[i]
	hfrom.Occ++
	hfrom.Departed--
	hto.Occ--
	if hto.Occ == 0 && hto.Departed == 0 && hm != m {
		hm.CurDim, hm.Crossed = int(w.curDim), w.crossed
	}
	from.Occ--
	from.Departed++
	to.Occ++
	n.chRR[ch] = v
}

// rrKey is VC index v's round-robin key past the pointer ptr (the last
// granted index, -1 initially): its cyclic distance, in [1, VCs].
func (n *Network) rrKey(v, ptr int32) int32 {
	k := v - ptr
	if k <= 0 {
		k += int32(n.vcs)
	}
	return k
}

// planCommit is planGrant on a one-VC network. A physical channel with one
// VC has at most one requester in a cycle: the VC's owner, and no other worm
// can acquire the VC while it holds it. So every eligible transfer is
// granted, and planCommit moves the flit with no record to keep and nothing
// to undo. The one state a grant leaves, chRR[ch] = 0 (the granted VC index),
// is stored all the same. A commit emits no event.
//
// Eligibility stays on pre-cycle state. The walk goes from head to tail, so a
// pair's upstream hop is still untouched, but its downstream hop may already
// have passed a flit on to the hop ahead: that hop's pre-cycle occupancy is
// carried over from the pair ahead. Only the head pair can move a header
// (every other hop has passed it on), and a one-VC network's VC id is its
// channel id, so chRR, chDim and chFlags are indexed by the VC directly.
func (n *Network) planCommit(m *message.Message) bool {
	depth := n.depth
	hops := m.Hops[m.Released:]
	head := &hops[len(hops)-1]
	headOcc := head.Occ
	var live int32
	occ := headOcc // the pair's downstream hop, before this cycle's moves
	for i := len(hops) - 1; i > 0; i-- {
		from, to := &hops[i-1], &hops[i]
		prev := from.Occ
		// prev > 0 && occ < depth
		e := int32(uint32(-prev)>>31) & int32(uint32(occ-depth)>>31)
		live |= e
		from.Occ -= e
		from.Departed += e
		to.Occ += e
		n.chRR[to.VC] &= e - 1
		occ = prev
	}
	if headOcc == 0 && head.Occ > 0 && head.Departed == 0 {
		// The header just entered head's channel.
		m.CurDim = int(n.chDim[head.VC])
		m.Crossed |= n.chFlags[head.VC]
	}
	if headOcc > 0 && int(n.downstream[head.VC]) == m.Dst {
		n.requestRx(m.Dst, head.VC)
		n.rxNodes[m.Dst>>6] |= 1 << (m.Dst & 63)
		return true
	}
	// With nothing committed, the injection hop still holds its pre-cycle
	// count.
	return live != 0 || n.sourceFlitDue(m)
}

// sourceFlitDue reports whether m's source streams a flit into the injection
// buffer this cycle: one is left, the buffer has room and is still owned.
func (n *Network) sourceFlitDue(m *message.Message) bool {
	return m.SrcRemaining > 0 && m.Hops[0].Occ < n.depth && m.Released == 0
}

// arbitrateAndEject grants one ejection per requested reception port: the
// head VC that follows the node's round-robin pointer, in ascending node
// order.
func (n *Network) arbitrateAndEject() {
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
// nothing to stream or release (see planGrant).
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
			n.freed[n.vcSrc[vc]]++
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
