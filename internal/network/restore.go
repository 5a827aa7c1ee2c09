package network

// Injected-state construction: RestoreState loads an explicitly described
// resource state into a network, bypassing the cycle engine. The model
// checker (internal/modelcheck) uses it to run the real detection pipeline —
// Detector.Snapshot, cwg.Builder, knot analysis, victim selection — on every
// state its exhaustive explorer enumerates, so the detector is validated on
// exactly the code path production runs use, not on a reimplementation.
// For the same reason Route answers, for a header described by value, what
// the allocate kernel's route answers for a live one.
//
// An injected state must satisfy every structural invariant the engine
// maintains (exclusive ownership, flit conservation, path contiguity, buffer
// bounds); RestoreState validates all of them and rejects descriptively
// rather than installing an impossible state.

import (
	"fmt"
	"slices"

	"flexsim/internal/message"
)

// InjectedMessage describes one message's complete resource state for
// RestoreState: a queued message (empty Path) or an active one with its
// owned VC chain, buffer occupancy and progress counters given explicitly.
type InjectedMessage struct {
	ID  message.ID
	Src int
	Dst int
	Len int

	// Path is the owned VC chain in acquisition order. Leading VCs the
	// tail has fully drained must be omitted (the engine releases them
	// eagerly; see Message.Released). Empty Path means the message is
	// queued at Src; queued messages at one node enter the source queue
	// in slice order.
	Path []message.VC
	// Occ[i] is the number of flits buffered in Path[i]'s edge buffer.
	Occ []int32

	// SrcRemaining counts flits not yet injected; Consumed counts flits
	// ejected at the destination. SrcRemaining + sum(Occ) + Consumed must
	// equal Len (flit conservation). A message with Consumed == Len is
	// retired and must not be injected.
	SrcRemaining int
	Consumed     int

	// Crossed is the header's route-flag state (dateline crossings).
	Crossed uint32

	// Blocked marks the header as blocked in the allocation phase with
	// Wants as its candidate set (the CWG dashed arcs). Only meaningful
	// when the header flit sits at the head of its buffer and the message
	// is not at its destination. Wants must be exactly what the routing
	// relation offers that header, in selection order: the engine does not
	// re-route a blocked header until a wanted VC frees, so a wrong set
	// would persist (see WantsMismatchError).
	Blocked      bool
	Wants        []message.VC
	BlockedSince int64
}

// WantsMismatchError is RestoreState's rejection of a blocked
// InjectedMessage whose Wants is not the candidate set the routing relation
// (restricted to the current fault set) offers its header.
type WantsMismatchError struct {
	ID   message.ID
	Got  []message.VC // the caller-supplied Wants
	Want []message.VC // the routed candidate set; empty if the header is unroutable
}

func (e *WantsMismatchError) Error() string {
	return fmt.Sprintf("wants %v disagree with the routing relation's candidates %v", e.Got, e.Want)
}

// RestoreState replaces the network's entire dynamic state (owner table,
// active list, source queues, clock) with the described one. Counters and
// construction parameters are untouched. The resource epoch is bumped, so
// attached detectors rebuild their CWG on the next pass.
//
// Every structural invariant is validated; on error the network is left in a
// fully reset (empty) state, never a partial one.
func (n *Network) RestoreState(now int64, msgs []InjectedMessage) error {
	n.clearDynamic(now)
	var maxID message.ID = -1
	for i := range msgs {
		im := &msgs[i]
		if err := n.installMessage(im); err != nil {
			n.clearDynamic(now)
			return fmt.Errorf("network: restore msg %d: %w", im.ID, err)
		}
		if im.ID > maxID {
			maxID = im.ID
		}
	}
	n.nextID = maxID + 1
	n.markQueues() // a queue may have been filled before its injection VC was taken
	if err := n.CheckInvariants(); err != nil {
		n.clearDynamic(now)
		return fmt.Errorf("network: restored state invalid: %w", err)
	}
	return nil
}

// clearDynamic empties all per-run mutable state, keeping parameters and
// monotonic counters.
func (n *Network) clearDynamic(now int64) {
	for i := range n.owner {
		n.owner[i] = nil
	}
	for i := range n.queues {
		n.queues[i] = msgQueue{}
	}
	n.markQueues()
	for i := range n.active {
		n.active[i] = nil
	}
	n.active = n.active[:0]
	n.activeByID = n.activeByID[:0]
	n.activeDirty = true
	n.queued = 0
	n.blocked = 0
	n.now = now
	n.nextID = 0
	n.resEpoch++
}

// installMessage validates one InjectedMessage and installs it.
func (n *Network) installMessage(im *InjectedMessage) error {
	nodes := n.topo.Nodes()
	if im.Src < 0 || im.Src >= nodes || im.Dst < 0 || im.Dst >= nodes {
		return fmt.Errorf("src %d or dst %d outside [0,%d)", im.Src, im.Dst, nodes)
	}
	if im.Len < 1 {
		return fmt.Errorf("length %d < 1", im.Len)
	}
	occ := 0
	for i, o := range im.Occ {
		if o < 0 {
			return fmt.Errorf("negative occupancy at slot %d", i)
		}
		occ += int(o)
	}
	if got := im.SrcRemaining + occ + im.Consumed; got != im.Len {
		return fmt.Errorf("flit conservation violated: src=%d buffered=%d consumed=%d len=%d",
			im.SrcRemaining, occ, im.Consumed, im.Len)
	}

	if len(im.Path) == 0 {
		// Queued at the source.
		if im.SrcRemaining != im.Len {
			return fmt.Errorf("queued message must hold all %d flits at the source, has %d",
				im.Len, im.SrcRemaining)
		}
		if im.Blocked {
			return fmt.Errorf("queued message cannot be blocked")
		}
		n.enqueue(im.Src, message.New(im.ID, im.Src, im.Dst, im.Len, n.now))
		return nil
	}
	if len(im.Occ) != len(im.Path) {
		return fmt.Errorf("Occ length %d != Path length %d", len(im.Occ), len(im.Path))
	}

	m := message.New(im.ID, im.Src, im.Dst, im.Len, n.now)
	m.Status = message.Active
	m.SrcRemaining = im.SrcRemaining
	m.Consumed = im.Consumed
	m.Crossed = im.Crossed
	last := len(im.Path) - 1
	for i, vc := range im.Path {
		if int(vc) < 0 || int(vc) >= n.numVCs {
			return fmt.Errorf("VC %d outside id space [0,%d)", vc, n.numVCs)
		}
		if n.IsInjection(vc) {
			if i != 0 {
				return fmt.Errorf("injection VC %s at path position %d", n.VCString(vc), i)
			}
			if n.Downstream(vc) != im.Src {
				return fmt.Errorf("injection VC %s is not src %d's", n.VCString(vc), im.Src)
			}
		} else if i > 0 {
			ch := n.VCChannel(vc)
			if n.topo.ChannelSrc(ch) != n.Downstream(im.Path[i-1]) {
				return fmt.Errorf("path not contiguous: %s does not leave %s's downstream node",
					n.VCString(vc), n.VCString(im.Path[i-1]))
			}
		}
		if im.Occ[i] > n.depth {
			return fmt.Errorf("occupancy %d exceeds %s's depth %d", im.Occ[i], n.VCString(vc), n.depth)
		}
		if n.owner[vc] != nil {
			return fmt.Errorf("VC %s already owned by msg %d", n.VCString(vc), n.owner[vc].ID)
		}
		n.acquire(m, vc)
		m.Hops[i].Occ = im.Occ[i]
		// Departed[i] = flits that advanced past slot i (conservation).
		d := im.Consumed
		for j := i + 1; j <= last; j++ {
			d += int(im.Occ[j])
		}
		if d >= im.Len {
			return fmt.Errorf("slot %d (%s) fully drained: released VCs must be omitted",
				i, n.VCString(vc))
		}
		m.Hops[i].Departed = int32(d)
	}
	if im.SrcRemaining > 0 && !n.IsInjection(im.Path[0]) {
		return fmt.Errorf("%d flits remain at the source but the injection VC is released",
			im.SrcRemaining)
	}
	m.CurDim = n.curDim(im.Path[last])
	if im.Blocked {
		if m.Hops[last].Occ == 0 || m.Hops[last].Departed != 0 {
			return fmt.Errorf("blocked header is not at the head of its buffer")
		}
		if n.Downstream(im.Path[last]) == im.Dst {
			return fmt.Errorf("blocked message is at its destination (ejection never blocks)")
		}
		if len(im.Wants) == 0 {
			return fmt.Errorf("blocked message has an empty candidate set")
		}
		m.Wants = n.appendVCs(m.Wants, n.route(m, n.Downstream(im.Path[last])))
		if !slices.Equal(m.Wants, im.Wants) {
			return &WantsMismatchError{ID: im.ID, Got: im.Wants, Want: m.Wants}
		}
		m.Blocked = true
		m.BlockedSince = im.BlockedSince
		m.WantsGen = n.faultGen
		n.blocked++
	}
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	n.active = append(n.active, m)
	return nil
}

// Route returns what the allocate kernel's route offers a header bound from
// src to dst that sits in held after hops hops (the injection VC is hop 0)
// with route flags crossed: the routing relation's candidates in selection
// order, through the fault filter and Surviving fallback and under the hop
// and misroute budgets, appended to buf as VC ids. An empty result means the
// header is unroutable. The header's CurDim is derived from held, as
// RestoreState derives it. Route uses the engine's routing scratch, so it
// must not run concurrently with Step.
func (n *Network) Route(buf []message.VC, src, dst int, held message.VC, hops int, crossed uint32) []message.VC {
	m := &n.hdr
	m.Src, m.Dst, m.CurDim, m.Crossed = src, dst, n.curDim(held), crossed
	m.Hops = slices.Grow(m.Hops[:0], hops+1)[:hops+1]
	m.Hops[hops].VC = held
	return n.appendVCs(buf, n.route(m, n.Downstream(held)))
}

// curDim is the CurDim of a header in vc: the dimension of vc's channel, or
// -1 in an injection VC.
func (n *Network) curDim(vc message.VC) int {
	if n.IsInjection(vc) {
		return -1
	}
	return int(n.chDim[n.VCChannel(vc)])
}
