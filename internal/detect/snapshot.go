package detect

import (
	"flexsim/internal/cwg"
	"flexsim/internal/message"
)

// AppendSnapshot appends the CWG snapshot of active, in its order, to msgs
// and returns it with vcs, which has grown by the VCs the new entries hold.
// It is the one place where live messages become a snapshot. A message
// holding no VC is left out. Each entry's Owned, and for a blocked message
// its Wants (the builder reads no other message's), are copies in vcs at
// full capacity, so an append to one copies it rather than overwrite the
// next.
func AppendSnapshot(msgs []cwg.Msg, vcs []message.VC, active []*message.Message) ([]cwg.Msg, []message.VC) {
	for _, m := range active {
		if m.OwnedCount() == 0 {
			continue
		}
		start := len(vcs)
		vcs = m.OwnedVCs(vcs)
		owned := vcs[start:len(vcs):len(vcs)]
		blocked := m.Blocked && m.Status == message.Active
		var wants []message.VC
		if blocked {
			start = len(vcs)
			vcs = append(vcs, m.Wants...)
			wants = vcs[start:len(vcs):len(vcs)]
		}
		msgs = append(msgs, cwg.Msg{ID: m.ID, Owned: owned, Blocked: blocked, Wants: wants})
	}
	return msgs, vcs
}

// Snapshot returns the CWG snapshot of the network's current state, in
// ActiveMessages order. It is valid until the next Snapshot or DetectNow.
func (d *Detector) Snapshot() []cwg.Msg {
	d.snap, d.snapVCs = AppendSnapshot(d.snap[:0], d.snapVCs[:0], d.net.ActiveMessages())
	return d.snap
}
