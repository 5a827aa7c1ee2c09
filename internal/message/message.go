// Package message defines the message abstraction used by the flit-level
// network simulator: a multi-flit worm that acquires exclusive ownership of
// a chain of virtual channels (VCs) as its header advances and releases them
// as its tail drains forward.
//
// A message's dynamic state is deliberately compact: because a VC buffer
// holds flits of at most one message at a time (ownership is exclusive from
// header allocation until tail departure), per-VC FIFO contents reduce to an
// occupancy count per owned VC. The network layer mutates this state; the
// deadlock detector reads it to build channel wait-for graphs.
package message

import "fmt"

// VC is an opaque handle for a virtual channel resource. The network layer
// defines the id space (network VCs followed by per-node injection VCs);
// this package and the CWG layer treat VCs as vertices only.
type VC int32

// NoVC is the sentinel for "no virtual channel".
const NoVC VC = -1

// ID uniquely identifies a message within a simulation run.
type ID int64

// Status describes where a message is in its lifecycle.
type Status int8

const (
	// Queued: generated, waiting at the source node, holding no network
	// resources.
	Queued Status = iota
	// Active: holds at least one VC (injection or network).
	Active
	// Delivered: every flit consumed at the destination.
	Delivered
	// Recovering: selected as a deadlock victim; being absorbed
	// flit-by-flit (Disha-style synthesized recovery).
	Recovering
	// Recovered: fully absorbed by the recovery mechanism (delivered out
	// of band).
	Recovered
	// Killed: removed from the network by a fault (its channel or node
	// failed, or it became unroutable on the surviving graph). Flits are
	// accounted as consumed; the message is not counted as delivered.
	Killed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Queued:
		return "queued"
	case Active:
		return "active"
	case Delivered:
		return "delivered"
	case Recovering:
		return "recovering"
	case Recovered:
		return "recovered"
	case Killed:
		return "killed"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// Hop is one acquired VC and this message's flit counts in its edge buffer.
// One array of hops per message keeps slot i and i+1 — which every flit
// movement reads together — on the same cache line.
type Hop struct {
	VC VC
	// Occ is the number of this message's flits currently buffered here.
	Occ int32
	// Departed is the number of flits that have left this buffer (forwarded
	// to the next hop, consumed at the destination, or absorbed). The VC is
	// releasable once Departed == Len.
	Departed int32
}

// Message is one multi-flit message. Fields are exported because the network
// layer is the mutator and lives in a sibling package; nothing outside
// internal/ can reach this type.
type Message struct {
	ID  ID
	Src int
	Dst int
	Len int // flits, including header and tail

	Status Status
	// WaitRouter is declared here to fill Status's padding (see Blocked).
	WaitRouter int32

	// Timing, in simulation cycles.
	CreateTime  int64 // generation (entered the source queue)
	InjectTime  int64 // header entered the injection VC
	DeliverTime int64 // tail consumed (or absorption completed)

	// Hops is the chain of VCs acquired, in acquisition order, each with its
	// buffer state. Hops[0] is the source's injection VC. Hops[len-1] is the
	// VC holding (or about to receive) the header.
	Hops []Hop
	// Released is the count of leading Hops entries whose VCs have been
	// returned to the free pool; Hops[Released:] are still owned.
	Released int

	// SrcRemaining counts flits not yet injected (still at the source).
	SrcRemaining int
	// Consumed counts flits ejected at the destination or absorbed by
	// recovery.
	Consumed int

	// Routing state maintained by the network as the header advances.
	// CurDim is the dimension of the channel the header last traversed
	// (-1 while still in the injection VC). Crossed has bit d set once the
	// header has traversed dimension d's dateline (wraparound) link; it
	// drives escape-VC class selection in deadlock-avoidance algorithms.
	// Minimal routing crosses each dimension's wrap link at most once, so
	// the bits are monotone.
	CurDim  int
	Crossed uint32

	// Blocked is true when the header sat at the head of its buffer this
	// cycle, requested an output VC, and every candidate was owned by
	// another message. Wants then lists the candidate VCs (the dashed
	// arcs of the channel wait-for graph). WantsGen is the network's fault
	// generation Wants was routed under: the set stays exact, without
	// re-routing, until that generation moves or the header does.
	// WaitRouter is the router the blocked header sits at, and WaitFreed
	// that router's count of freed VCs when Wants was last found all owned:
	// the network scans Wants again only once the count has moved.
	Blocked bool
	// Frozen marks an Active worm the network's last plan walk found unable
	// to move a flit: no hop pair could transfer, no flit was due at the
	// reception port and none at the source. Every transfer is between two
	// hops of one worm, so it stays that way until the worm acquires a VC;
	// the network sets it in the plan walk, clears it in acquire, and skips
	// the walk, source streaming and the release scan while it holds.
	// Meaningless once Status leaves Active.
	Frozen       bool
	BlockedSince int64
	Wants        []VC
	WantsGen     uint32
	WaitFreed    uint32
}

// Make returns a Queued message value ready for injection; the network's
// slab allocator stores it into a pre-carved slot.
func Make(id ID, src, dst, length int, now int64) Message {
	return Message{
		ID:           id,
		Src:          src,
		Dst:          dst,
		Len:          length,
		Status:       Queued,
		CreateTime:   now,
		SrcRemaining: length,
		CurDim:       -1,
	}
}

// New returns a heap-allocated Queued message ready for injection.
func New(id ID, src, dst, length int, now int64) *Message {
	m := Make(id, src, dst, length, now)
	return &m
}

// HeadVC returns the most recently acquired VC (where the header resides or
// is headed), or NoVC if the message owns nothing.
func (m *Message) HeadVC() VC {
	if len(m.Hops) == 0 || m.Released == len(m.Hops) {
		return NoVC
	}
	return m.Hops[len(m.Hops)-1].VC
}

// Acquire appends vc to the owned chain with empty occupancy.
func (m *Message) Acquire(vc VC) {
	m.Hops = append(m.Hops, Hop{VC: vc})
}

// OwnedVCs appends the currently owned VCs, in acquisition order, to buf and
// returns it.
func (m *Message) OwnedVCs(buf []VC) []VC {
	for _, h := range m.Hops[m.Released:] {
		buf = append(buf, h.VC)
	}
	return buf
}

// OwnedCount returns how many VCs the message currently owns.
func (m *Message) OwnedCount() int { return len(m.Hops) - m.Released }

// InNetwork counts the message's flits currently occupying edge buffers.
func (m *Message) InNetwork() int {
	return m.Len - m.SrcRemaining - m.Consumed
}

// CheckInvariants validates flit conservation and monotonic release state;
// it returns a descriptive error on violation. The network layer calls this
// under test builds and in property tests.
func (m *Message) CheckInvariants() error {
	occ := 0
	for i, h := range m.Hops {
		if h.Occ < 0 {
			return fmt.Errorf("message %d: negative occupancy at slot %d", m.ID, i)
		}
		occ += int(h.Occ)
	}
	if got := m.SrcRemaining + occ + m.Consumed; got != m.Len {
		return fmt.Errorf("message %d: flit conservation violated: src=%d buffered=%d consumed=%d len=%d",
			m.ID, m.SrcRemaining, occ, m.Consumed, m.Len)
	}
	if m.Released < 0 || m.Released > len(m.Hops) {
		return fmt.Errorf("message %d: released index %d out of range [0,%d]", m.ID, m.Released, len(m.Hops))
	}
	for i, h := range m.Hops {
		d := h.Departed
		if i < m.Released && d != int32(m.Len) {
			return fmt.Errorf("message %d: slot %d released with only %d/%d flits departed",
				m.ID, i, d, m.Len)
		}
		if d < 0 || d > int32(m.Len) {
			return fmt.Errorf("message %d: departed[%d]=%d out of range", m.ID, i, d)
		}
		// Flits depart slot i before they can depart slot i+1.
		if i+1 < len(m.Hops) && m.Hops[i+1].Departed > d {
			return fmt.Errorf("message %d: departed not monotone at slot %d (%d < %d)",
				m.ID, i, d, m.Hops[i+1].Departed)
		}
	}
	return nil
}

// String summarizes the message for logs.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d %d->%d len=%d %s owned=%d blocked=%v",
		m.ID, m.Src, m.Dst, m.Len, m.Status, m.OwnedCount(), m.Blocked)
}
