package network

// Resource-event forensics: a bounded ring of the mutations that bump the
// resource epoch (VC acquire/release, block/unblock), recorded with enough
// state to run the history *backwards*. Starting from the live message
// state and applying the inverse of each event in reverse order
// reconstructs the exact ownership and wait relation — and therefore the
// channel wait-for graph — at any earlier cycle the ring still covers.
// That replay is what turns a detected deadlock into a formation timeline
// (see obs.FormationAnalyzer).
//
// Recording is opt-in via SetResourceLog and costs one nil check per
// mutation when off, keeping the forensics-off hot path allocation-free.

import "flexsim/internal/message"

// ResKind enumerates reversible resource mutations.
type ResKind int8

const (
	// ResAcquire: the message appended VC to its owned path.
	ResAcquire ResKind = iota
	// ResRelease: the message freed its oldest owned VC (releases are
	// always front-first).
	ResRelease
	// ResBlock: the message entered a blocking episode; Wants holds the
	// candidate set it stalled on.
	ResBlock
	// ResUnblock: the message left a blocking episode (grant, delivery,
	// recovery or kill); Wants holds the candidate set it was waiting on
	// immediately before, so a rewind can restore the blocked state.
	ResUnblock
)

// String returns the mutation name.
func (k ResKind) String() string {
	switch k {
	case ResAcquire:
		return "acquire"
	case ResRelease:
		return "release"
	case ResBlock:
		return "block"
	case ResUnblock:
		return "unblock"
	default:
		return "ResKind(?)"
	}
}

// ResourceEvent is one recorded mutation.
type ResourceEvent struct {
	Cycle int64
	Kind  ResKind
	Msg   message.ID
	// VC is the channel acquired or released (ResAcquire/ResRelease), or
	// NoVC.
	VC message.VC
	// Wants is the blocked candidate set (ResBlock/ResUnblock); the slice
	// is owned by the log (copied at record time).
	Wants []message.VC
}

// ResourceLog is a bounded ring of resource events, oldest evicted first.
// It is not safe for concurrent use; the network records from its cycle
// loop and analyzers read between steps.
type ResourceLog struct {
	buf   []ResourceEvent
	next  int
	full  bool
	total int64
}

// NewResourceLog returns a log retaining the most recent capacity events
// (minimum 1).
func NewResourceLog(capacity int) *ResourceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &ResourceLog{buf: make([]ResourceEvent, 0, capacity)}
}

// record appends one event, copying wants so later in-place rewrites by the
// network cannot corrupt history.
func (l *ResourceLog) record(cycle int64, kind ResKind, id message.ID, vc message.VC, wants []message.VC) {
	e := ResourceEvent{Cycle: cycle, Kind: kind, Msg: id, VC: vc}
	if len(wants) > 0 {
		e.Wants = append(make([]message.VC, 0, len(wants)), wants...)
	}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % cap(l.buf)
		l.full = true
	}
	l.total++
}

// Len returns the number of retained events.
func (l *ResourceLog) Len() int { return len(l.buf) }

// Total returns the number of events ever recorded.
func (l *ResourceLog) Total() int64 { return l.total }

// Wrapped reports whether the ring has evicted events.
func (l *ResourceLog) Wrapped() bool { return l.full }

// Events appends the retained events, oldest first, to dst and returns it.
func (l *ResourceLog) Events(dst []ResourceEvent) []ResourceEvent {
	if !l.full {
		return append(dst, l.buf...)
	}
	dst = append(dst, l.buf[l.next:]...)
	return append(dst, l.buf[:l.next]...)
}

// OldestCycle returns the cycle stamp of the oldest retained event, or -1
// when the log is empty.
func (l *ResourceLog) OldestCycle() int64 {
	if len(l.buf) == 0 {
		return -1
	}
	if !l.full {
		return l.buf[0].Cycle
	}
	return l.buf[l.next].Cycle
}

// MinReplayCycle returns the earliest cycle a rewind over this log can
// faithfully reconstruct. With no evictions the full history is covered
// and any cycle >= 0 is reachable; once the ring has wrapped, only cycles
// at or after the oldest retained event are trustworthy (events from the
// boundary cycle itself may have been partially evicted, so the boundary
// is conservative).
func (l *ResourceLog) MinReplayCycle() int64 {
	if !l.Wrapped() {
		return 0
	}
	return l.OldestCycle()
}

// SetResourceLog attaches (or, with nil, detaches) a forensic resource log.
// All subsequent epoch-bumping mutations are recorded into it.
func (n *Network) SetResourceLog(l *ResourceLog) { n.resLog = l }

// logRes records one mutation when forensics is attached; one nil check
// otherwise.
func (n *Network) logRes(kind ResKind, id message.ID, vc message.VC, wants []message.VC) {
	if n.resLog == nil {
		return
	}
	n.resLog.record(n.now, kind, id, vc, wants)
}
