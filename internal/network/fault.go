package network

// Fault support: deactivating and reactivating channels, virtual channels
// and nodes mid-run, killing the messages that held or needed them, and
// excluding dead resources from the routing supply set. The fault state is
// lazily allocated — a fault-free run pays exactly one nil check per phase,
// keeping the no-schedule hot path allocation-free and within noise of a
// build without this file.
//
// Semantics are compositional: a channel is dead while its own link is down
// OR either endpoint node is down; a VC is unusable while its channel is
// dead OR that single VC is locked. Down/up events are idempotent, and a
// LinkUp cannot revive a channel whose endpoint is still failed.

import (
	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
)

// faultState holds the network's fault flags; nil on a healthy network.
type faultState struct {
	chDown   []bool // by channel id: link failed
	vcLocked []bool // by network VC id: single-VC lockout
	nodeDown []bool // by node id: router fail-stopped

	linksDown int
	vcsLocked int
	nodesDown int

	// maxHops bounds fallback misrouting: a header that has taken this
	// many hops without reaching its destination is disconnected from it
	// (or livelocked around a fault) and is killed as unroutable.
	maxHops int

	// alive is the liveness predicate handed to the routing helpers,
	// built once so the allocation phase stays closure-allocation free.
	// Enumeration scratch lives on the Network (fbBuf, chBuf).
	alive routing.Alive
}

// ensureFaults allocates the fault state on first use.
func (n *Network) ensureFaults() *faultState {
	if n.faults == nil {
		f := &faultState{
			chDown:   make([]bool, n.topo.NumChannels()),
			vcLocked: make([]bool, n.numNetVCs),
			nodeDown: make([]bool, n.topo.Nodes()),
			maxHops:  4 * n.topo.Nodes(),
		}
		if f.maxHops < 64 {
			f.maxHops = 64
		}
		f.alive = func(ch topology.ChannelID, v int) bool {
			return !f.chDown[ch] &&
				!f.nodeDown[n.topo.ChannelSrc(ch)] &&
				!f.nodeDown[n.topo.ChannelDst(ch)] &&
				!f.vcLocked[int(ch)*n.vcs+v]
		}
		n.faults = f
		n.markQueues() // every waiting queue is scanned from here on
	}
	return n.faults
}

// faultSetChanged invalidates what was derived from the old fault set: the
// detector's change gate and every parked header's candidate set.
func (n *Network) faultSetChanged() {
	n.resEpoch++
	n.faultGen++
}

// FaultsActive returns the number of currently failed resources (downed
// links + locked VCs + dead nodes); 0 on a healthy network.
func (n *Network) FaultsActive() int {
	if n.faults == nil {
		return 0
	}
	return n.faults.linksDown + n.faults.vcsLocked + n.faults.nodesDown
}

// LinksDown returns the number of currently failed links.
func (n *Network) LinksDown() int {
	if n.faults == nil {
		return 0
	}
	return n.faults.linksDown
}

// SetLinkDown fails channel ch: messages occupying its VCs are killed and
// the channel leaves every routing supply set until SetLinkUp. Idempotent.
func (n *Network) SetLinkDown(ch topology.ChannelID) {
	f := n.ensureFaults()
	if f.chDown[ch] {
		return
	}
	f.chDown[ch] = true
	f.linksDown++
	n.faultSetChanged()
	for v := 0; v < n.vcs; v++ {
		if m := n.owner[n.NetVC(ch, v)]; m != nil {
			n.Kill(m)
		}
	}
}

// SetLinkUp repairs channel ch. The channel stays dead while either
// endpoint node is still down. Idempotent.
func (n *Network) SetLinkUp(ch topology.ChannelID) {
	f := n.ensureFaults()
	if !f.chDown[ch] {
		return
	}
	f.chDown[ch] = false
	f.linksDown--
	n.faultSetChanged()
}

// SetVCDown locks virtual channel v of channel ch (a stuck allocator
// entry): its owner is killed and the VC is excluded from supply sets; the
// channel's other VCs keep working. Idempotent.
func (n *Network) SetVCDown(ch topology.ChannelID, v int) {
	f := n.ensureFaults()
	vc := n.NetVC(ch, v)
	if f.vcLocked[vc] {
		return
	}
	f.vcLocked[vc] = true
	f.vcsLocked++
	n.faultSetChanged()
	if m := n.owner[vc]; m != nil {
		n.Kill(m)
	}
}

// SetVCUp unlocks virtual channel v of channel ch. Idempotent.
func (n *Network) SetVCUp(ch topology.ChannelID, v int) {
	f := n.ensureFaults()
	vc := n.NetVC(ch, v)
	if !f.vcLocked[vc] {
		return
	}
	f.vcLocked[vc] = false
	f.vcsLocked--
	n.faultSetChanged()
}

// SetNodeDown fail-stops a router: every incident channel goes dead,
// messages holding its injection VC or an incident channel's VC — or
// destined to it — are killed, its source queue stops injecting, and
// queued messages addressed to it are dropped as they reach the queue
// head. Idempotent.
func (n *Network) SetNodeDown(node int) {
	f := n.ensureFaults()
	if f.nodeDown[node] {
		return
	}
	f.nodeDown[node] = true
	f.nodesDown++
	n.faultSetChanged()
	for _, m := range n.ActiveMessages() {
		if m.Status != message.Active && m.Status != message.Recovering {
			continue
		}
		if m.Dst == node {
			n.Kill(m)
			continue
		}
		for _, h := range m.Hops[m.Released:] {
			vc := h.VC
			if n.IsInjection(vc) {
				if n.Downstream(vc) == node {
					n.Kill(m)
					break
				}
				continue
			}
			ch := n.VCChannel(vc)
			if n.topo.ChannelSrc(ch) == node || n.topo.ChannelDst(ch) == node {
				n.Kill(m)
				break
			}
		}
	}
}

// SetNodeUp restarts a failed router; its incident channels come back
// unless their own links are still down. Idempotent.
func (n *Network) SetNodeUp(node int) {
	f := n.ensureFaults()
	if !f.nodeDown[node] {
		return
	}
	f.nodeDown[node] = false
	f.nodesDown--
	n.faultSetChanged()
}

// Kill removes an active or recovering message from the network as a fault
// casualty: buffered flits are discarded (counted in KilledFlits), owned
// VCs are marked fully departed so the next release phase frees them, and
// the message retires with Status Killed — accounted separately from
// delivery. The resource epoch bumps so the detector's change gate
// invalidates. Called between cycles (fault injector, detector) and by the
// allocate kernel for an unroutable header; it mutates only the message, and
// the release phase frees its VCs.
func (n *Network) Kill(m *message.Message) {
	if m.Status != message.Active && m.Status != message.Recovering {
		return
	}
	for i := m.Released; i < len(m.Hops); i++ {
		h := &m.Hops[i]
		n.KilledFlits += int64(h.Occ)
		m.Consumed += int(h.Occ)
		h.Occ = 0
		h.Departed = int32(m.Len)
	}
	m.Consumed += m.SrcRemaining
	m.SrcRemaining = 0
	if m.Blocked {
		n.logRes(ResUnblock, m.ID, message.NoVC, m.Wants)
	}
	m.Blocked = false
	m.Wants = nil
	m.Status = message.Killed
	m.DeliverTime = n.now
	n.KilledCount++
	n.resEpoch++
	n.trace(trace.Killed, m.ID, message.NoVC, -1)
}

// killUnroutable drops a message that has no live route to its destination
// (disconnected source/destination pair, or misrouting exhausted).
func (n *Network) killUnroutable(m *message.Message, node int) {
	n.UnroutableCount++
	n.trace(trace.Killed, m.ID, message.NoVC, node)
	n.Kill(m)
}

// dropQueuedDead retires a still-queued message whose destination node is
// down; it holds no resources, so it bypasses Kill and settles directly.
func (n *Network) dropQueuedDead(m *message.Message, node int) {
	m.Status = message.Killed
	m.DeliverTime = n.now
	m.Consumed = m.Len
	m.SrcRemaining = 0
	n.KilledCount++
	n.trace(trace.Killed, m.ID, message.NoVC, node)
	n.deliver(m)
}

// faultCandidates applies the fault state to a routed candidate set: dead
// candidates are filtered out, and if nothing minimal survives the header
// falls back to any live output except the reverse hop (any output at all
// if only the reverse survives). It returns the live candidate set; an
// empty result means the destination is unreachable on the surviving graph
// or the message exhausted its misroute budget, and the caller should kill
// it as unroutable.
func (n *Network) faultCandidates(m *message.Message, here int, prev topology.ChannelID,
	cands []routing.Candidate) []routing.Candidate {
	f := n.faults
	cands = routing.FilterAlive(cands, f.alive)
	if len(cands) > 0 {
		return cands
	}
	// Entire minimal set is dead: misroute over the surviving graph, if
	// the hop budget allows.
	if len(m.Hops)-1 > f.maxHops {
		return nil
	}
	n.fbBuf, n.chBuf = routing.Surviving(n.topo, here, prev, n.vcs, f.alive, n.fbBuf[:0], n.chBuf)
	if len(n.fbBuf) == 0 && prev != topology.None {
		// A dead-end whose only live exit is backwards: turning around
		// beats dying (the hop budget bounds any ping-pong).
		n.fbBuf, n.chBuf = routing.Surviving(n.topo, here, topology.None, n.vcs, f.alive, n.fbBuf[:0], n.chBuf)
	}
	return n.fbBuf
}
