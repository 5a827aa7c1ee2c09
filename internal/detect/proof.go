package detect

// Knot-freedom without the wait-for graph.
//
// Every vertex of a CWG is a VC that some message owns or that a blocked
// message wants. An owned VC's only arcs are its owner's: solid ones along
// the owned chain to the owner's head VC, dashed ones out of the head. So an
// owned VC reaches exactly what its owner's head reaches, and a free VC has
// no arc at all: it is a sink. Every vertex reaches some terminal strongly
// connected component, and a terminal one without an arc is a sink, so the
// graph has a knot iff some vertex reaches no sink. Hence the graph is
// knot-free iff every message holding a VC escapes, where a message escapes
// if its head is a sink (it is not blocked), if it wants a free VC, or if it
// wants a VC whose owner escapes. (A blocked head that wanted nothing would
// be a sink too, but the network kills a header with no candidate rather
// than block it.) proveKnotFree computes that least fixpoint over the live
// messages, in no particular order (the fixpoint does not depend on it, and
// sorting them would cost more than the proof), and the network's owner
// table, in storage reused across passes.

import "flexsim/internal/message"

// proveKnotFree reports whether the channel wait-for graph of the network's
// current state has no knot, and how many blocked messages a Snapshot of it
// would hold. When it reports true the graph path would find no deadlock;
// when false it would find at least one.
func (d *Detector) proveKnotFree() (blocked int, ok bool) {
	if d.escaped == nil {
		d.escaped = make([]uint64, d.net.TotalVCs())
	}
	d.proofEpoch++
	ep := d.proofEpoch
	// escaped[head VC] == ep marks a message proved to escape this pass: a
	// message holding a VC has one head VC, and no other message has it.
	pending := d.pending[:0]
	for _, m := range d.net.ActiveUnsorted() {
		if m.OwnedCount() == 0 {
			continue
		}
		if m.Blocked && m.Status == message.Active {
			blocked++
			pending = append(pending, m)
		} else {
			d.escaped[m.HeadVC()] = ep
		}
	}
	// Sweep the unproved until a sweep proves none; each proof is visible
	// to the messages after it in the same sweep.
	for len(pending) > 0 {
		left := pending[:0]
		for _, m := range pending {
			if d.escapes(m, ep) {
				d.escaped[m.HeadVC()] = ep
			} else {
				left = append(left, m)
			}
		}
		if len(left) == len(pending) {
			break
		}
		pending = left
	}
	d.pending = pending[:0]
	return blocked, len(pending) == 0
}

// escapes reports whether blocked message m escapes given the messages
// proved so far in pass ep.
func (d *Detector) escapes(m *message.Message, ep uint64) bool {
	for _, w := range m.Wants {
		if o := d.net.Owner(w); o == nil || d.escaped[o.HeadVC()] == ep {
			return true
		}
	}
	return false
}
