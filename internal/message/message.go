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

// Message is one multi-flit message. Fields are exported because the network
// layer is the mutator and lives in a sibling package; nothing outside
// internal/ can reach this type.
type Message struct {
	ID  ID
	Src int
	Dst int
	Len int // flits, including header and tail

	Status Status

	// Timing, in simulation cycles.
	CreateTime  int64 // generation (entered the source queue)
	InjectTime  int64 // header entered the injection VC
	DeliverTime int64 // tail consumed (or absorption completed)

	// Path is the chain of VCs acquired, in acquisition order. Path[0] is
	// the source's injection VC. Path[len-1] is the VC holding (or about
	// to receive) the header.
	Path []VC
	// Occ[i] is the number of this message's flits currently buffered in
	// Path[i]'s edge buffer.
	Occ []int32
	// Departed[i] is the number of flits that have left Path[i]'s buffer
	// (forwarded to Path[i+1], consumed at the destination, or absorbed).
	// Path[i] is releasable once Departed[i] == Len.
	Departed []int32
	// Released is the count of leading Path entries whose VCs have been
	// returned to the free pool; Path[Released:] are still owned.
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
	Blocked      bool
	BlockedSince int64
	Wants        []VC
	WantsGen     uint32

	// Ord and Shard are cycle-scoped scheduling state maintained by the
	// network's parallel step engine: Ord is the message's position in
	// the global active order at the start of the cycle (the canonical
	// merge key for cross-shard effect ordering), Shard the worker that
	// owns it this cycle. Both are meaningless outside a Step.
	Ord   int32
	Shard int32
}

// New returns a Queued message ready for injection.
func New(id ID, src, dst, length int, now int64) *Message {
	return &Message{
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

// HeadVC returns the most recently acquired VC (where the header resides or
// is headed), or NoVC if the message owns nothing.
func (m *Message) HeadVC() VC {
	if len(m.Path) == 0 || m.Released == len(m.Path) {
		return NoVC
	}
	return m.Path[len(m.Path)-1]
}

// Acquire appends vc to the owned chain with empty occupancy.
func (m *Message) Acquire(vc VC) {
	m.Path = append(m.Path, vc)
	m.Occ = append(m.Occ, 0)
	m.Departed = append(m.Departed, 0)
}

// OwnedVCs appends the currently owned VCs, in acquisition order, to buf and
// returns it.
func (m *Message) OwnedVCs(buf []VC) []VC {
	return append(buf, m.Path[m.Released:]...)
}

// OwnedCount returns how many VCs the message currently owns.
func (m *Message) OwnedCount() int { return len(m.Path) - m.Released }

// InNetwork counts the message's flits currently occupying edge buffers.
func (m *Message) InNetwork() int {
	return m.Len - m.SrcRemaining - m.Consumed
}

// CheckInvariants validates flit conservation and monotonic release state;
// it returns a descriptive error on violation. The network layer calls this
// under test builds and in property tests.
func (m *Message) CheckInvariants() error {
	occ := 0
	for i, o := range m.Occ {
		if o < 0 {
			return fmt.Errorf("message %d: negative occupancy at slot %d", m.ID, i)
		}
		occ += int(o)
	}
	if got := m.SrcRemaining + occ + m.Consumed; got != m.Len {
		return fmt.Errorf("message %d: flit conservation violated: src=%d buffered=%d consumed=%d len=%d",
			m.ID, m.SrcRemaining, occ, m.Consumed, m.Len)
	}
	if m.Released < 0 || m.Released > len(m.Path) {
		return fmt.Errorf("message %d: released index %d out of range [0,%d]", m.ID, m.Released, len(m.Path))
	}
	for i := 0; i < m.Released; i++ {
		if m.Departed[i] != int32(m.Len) {
			return fmt.Errorf("message %d: slot %d released with only %d/%d flits departed",
				m.ID, i, m.Departed[i], m.Len)
		}
	}
	for i, d := range m.Departed {
		if d < 0 || d > int32(m.Len) {
			return fmt.Errorf("message %d: departed[%d]=%d out of range", m.ID, i, d)
		}
		if int(d) < 0 {
			return fmt.Errorf("message %d: departed[%d] negative", m.ID, i)
		}
		if i+1 < len(m.Departed) {
			// Flits depart slot i before they can depart slot i+1.
			if m.Departed[i+1] > m.Departed[i] {
				return fmt.Errorf("message %d: departed not monotone at slot %d (%d < %d)",
					m.ID, i, m.Departed[i], m.Departed[i+1])
			}
		}
	}
	return nil
}

// String summarizes the message for logs.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d %d->%d len=%d %s owned=%d blocked=%v",
		m.ID, m.Src, m.Dst, m.Len, m.Status, m.OwnedCount(), m.Blocked)
}
