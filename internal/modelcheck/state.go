package modelcheck

// Abstract state: the canonical, hashable encoding of simulator state the
// explorer enumerates over. A state is a fixed-size vector of per-message
// records; everything else (VC ownership) is derived from the records. The
// canonical form sorts messages by their byte encodings, so states that
// differ only by message identity collapse (symmetry reduction by
// message-ID canonicalization).

import (
	"fmt"
	"sort"

	"flexsim/internal/message"
	"flexsim/internal/network"
)

// msgState is one message's abstract state.
//
// Invariants mirror the engine's post-release normal form:
//   - path holds the owned VC chain only (released prefix dropped);
//   - srcRem + sum(occ) + consumed == len (flit conservation);
//   - a leading path slot with occ == 0 is only possible while srcRem > 0
//     (otherwise it would have been released);
//   - qpos is the message's position in its source queue (0 = head), or -1
//     once injected or done.
type msgState struct {
	src, dst int8
	qpos     int8
	srcRem   int8
	consumed int8
	crossed  uint8
	path     []message.VC
	occ      []int8
}

// done reports whether the message has fully retired.
func (m *msgState) done(msgLen int) bool {
	return len(m.path) == 0 && int(m.consumed) == msgLen
}

// queued reports whether the message is still waiting at its source.
func (m *msgState) queued() bool { return m.qpos >= 0 }

// clone deep-copies the record.
func (m *msgState) clone() msgState {
	c := *m
	c.path = append([]message.VC(nil), m.path...)
	c.occ = append([]int8(nil), m.occ...)
	return c
}

// state is a full abstract state: one record per message, in canonical
// (encoding-sorted) order.
type state struct {
	msgs []msgState
}

// encodeMsg appends m's canonical byte encoding to buf.
func encodeMsg(buf []byte, m *msgState) []byte {
	buf = append(buf, byte(m.src), byte(m.dst), byte(m.qpos+1),
		byte(m.srcRem), byte(m.consumed), m.crossed, byte(len(m.path)))
	for _, vc := range m.path {
		buf = append(buf, byte(vc))
	}
	for _, o := range m.occ {
		buf = append(buf, byte(o))
	}
	return buf
}

// canonicalize sorts s.msgs by encoding (stable) and returns the canonical
// key plus the permutation perm[old] = new index. Messages with identical
// encodings are interchangeable, so any stable order is canonical.
func (s *state) canonicalize() (key string, perm [MaxMessages]int8) {
	k := len(s.msgs)
	encs := make([][]byte, k)
	for i := range s.msgs {
		encs[i] = encodeMsg(nil, &s.msgs[i])
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return string(encs[order[a]]) < string(encs[order[b]])
	})
	sorted := make([]msgState, k)
	var buf []byte
	for newIdx, oldIdx := range order {
		sorted[newIdx] = s.msgs[oldIdx]
		perm[oldIdx] = int8(newIdx)
		buf = append(buf, encs[oldIdx]...)
	}
	s.msgs = sorted
	return string(buf), perm
}

// decodeState rebuilds the state from a canonical key.
func decodeState(key string, nmsgs int) state {
	s := state{msgs: make([]msgState, nmsgs)}
	b := []byte(key)
	p := 0
	for i := 0; i < nmsgs; i++ {
		m := &s.msgs[i]
		m.src = int8(b[p])
		m.dst = int8(b[p+1])
		m.qpos = int8(b[p+2]) - 1
		m.srcRem = int8(b[p+3])
		m.consumed = int8(b[p+4])
		m.crossed = b[p+5]
		n := int(b[p+6])
		p += 7
		m.path = make([]message.VC, n)
		m.occ = make([]int8, n)
		for j := 0; j < n; j++ {
			m.path[j] = message.VC(b[p+j])
		}
		p += n
		for j := 0; j < n; j++ {
			m.occ[j] = int8(b[p+j])
		}
		p += n
	}
	return s
}

// owners fills tbl (sized to the VC id space, -1 = free) with the owning
// message index per VC.
func (s *state) owners(tbl []int8) {
	for i := range tbl {
		tbl[i] = -1
	}
	for mi := range s.msgs {
		for _, vc := range s.msgs[mi].path {
			tbl[vc] = int8(mi)
		}
	}
}

// headerAtHead reports whether m's header flit sits at the head of its most
// recently acquired buffer (the engine's precondition for routing it).
func headerAtHead(m *msgState) bool {
	last := len(m.path) - 1
	return last >= 0 && m.consumed == 0 && m.occ[last] > 0
}

// sys-level state queries -----------------------------------------------------

// headerNode returns the node m's header occupies (the downstream node of
// its head VC).
func (sy *system) headerNode(m *msgState) int {
	return sy.net.Downstream(m.path[len(m.path)-1])
}

// atDst reports whether m's header has reached its destination router.
func (sy *system) atDst(m *msgState) bool {
	return sy.headerNode(m) == int(m.dst)
}

// blockedWants computes the engine's allocation-phase view of m in state s:
// blocked (header at head, not at destination, every wanted VC owned) and
// the VCs the engine's route offers the header (the CWG dashed arcs),
// appended to buf. owners must be s's ownership table. A state holds only
// the VCs a message still owns, so the hop count route is given is the
// owned chain's: only the fault and misroute budgets read it, and the model
// has no faults and refuses a misroute budget (see build).
func (sy *system) blockedWants(m *msgState, owners []int8, buf []message.VC) (bool, []message.VC) {
	if !headerAtHead(m) || sy.atDst(m) {
		return false, nil
	}
	last := len(m.path) - 1
	wants := sy.net.Route(buf[:0], int(m.src), int(m.dst), m.path[last], last, uint32(m.crossed))
	if len(wants) == 0 {
		return false, nil // unroutable; the engine kills rather than blocks
	}
	for _, vc := range wants {
		if owners[vc] < 0 {
			return false, wants
		}
	}
	return true, wants
}

// blockedMask returns the bitmask of blocked messages in s.
func (sy *system) blockedMask(s *state, owners []int8, buf []message.VC) uint8 {
	var mask uint8
	for mi := range s.msgs {
		m := &s.msgs[mi]
		if len(m.path) == 0 {
			continue
		}
		if b, _ := sy.blockedWants(m, owners, buf); b {
			mask |= 1 << uint(mi)
		}
	}
	return mask
}

// initialStates enumerates every distinct canonical initial state: all
// ordered assignments of (src, dst) pairs (src != dst) to the messages, all
// queued at their sources. Ordered assignments cover every source-queue
// order; canonicalization collapses the symmetric ones.
func (sy *system) initialStates() []string {
	nodes := sy.topo.Nodes()
	nm := sy.cfg.Messages
	seen := make(map[string]bool)
	var keys []string
	asg := make([][2]int, nm)
	var rec func(i int)
	rec = func(i int) {
		if i == nm {
			s := state{msgs: make([]msgState, nm)}
			qnext := make([]int8, nodes)
			for mi, a := range asg {
				s.msgs[mi] = msgState{
					src: int8(a[0]), dst: int8(a[1]),
					qpos:   qnext[a[0]],
					srcRem: int8(sy.cfg.MsgLen),
				}
				qnext[a[0]]++
			}
			key, _ := s.canonicalize()
			if !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
			return
		}
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				asg[i] = [2]int{src, dst}
				rec(i + 1)
			}
		}
	}
	rec(0)
	return keys
}

// materialize converts s into the real network's injected-message form:
// active messages first in canonical-index order, then queued ones in
// source-queue order; retired messages are omitted. Message IDs are the
// canonical indices, so detector verdicts map straight back to DP bits.
func (sy *system) materialize(s *state, owners []int8, buf []message.VC) []network.InjectedMessage {
	out := make([]network.InjectedMessage, 0, len(s.msgs))
	for mi := range s.msgs {
		m := &s.msgs[mi]
		if m.queued() || m.done(sy.cfg.MsgLen) {
			continue
		}
		im := network.InjectedMessage{
			ID: message.ID(mi), Src: int(m.src), Dst: int(m.dst), Len: sy.cfg.MsgLen,
			Path:         append([]message.VC(nil), m.path...),
			SrcRemaining: int(m.srcRem), Consumed: int(m.consumed),
			Crossed: uint32(m.crossed),
		}
		im.Occ = make([]int32, len(m.occ))
		for i, o := range m.occ {
			im.Occ[i] = int32(o)
		}
		if b, wants := sy.blockedWants(m, owners, buf); b {
			im.Blocked = true
			im.Wants = append([]message.VC(nil), wants...)
		}
		out = append(out, im)
	}
	// Queued messages in per-source queue order.
	for q := 0; ; q++ {
		found := false
		for mi := range s.msgs {
			m := &s.msgs[mi]
			if int(m.qpos) == q {
				out = append(out, network.InjectedMessage{
					ID: message.ID(mi), Src: int(m.src), Dst: int(m.dst),
					Len: sy.cfg.MsgLen, SrcRemaining: int(m.srcRem),
				})
				found = true
			}
		}
		if !found {
			break
		}
	}
	return out
}

// restore loads s into the real network and returns an error if the
// abstract state violates any engine invariant (a checker bug).
func (sy *system) restore(s *state, owners []int8, buf []message.VC) error {
	msgs := sy.materialize(s, owners, buf)
	if err := sy.net.RestoreState(0, msgs); err != nil {
		return fmt.Errorf("modelcheck: %s: %w", sy.cfg.Name(), err)
	}
	return nil
}
