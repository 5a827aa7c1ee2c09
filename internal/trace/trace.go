// Package trace provides structured event tracing for the network
// simulator: message lifecycle transitions (queued, injected, VC allocated,
// blocked, unblocked, delivered, recovery) as compact events that can be
// streamed as JSONL, counted, or kept in a post-mortem ring buffer.
// Tracing is opt-in; a nil tracer costs one branch per event site.
package trace

import (
	"fmt"
	"sync"

	"flexsim/internal/message"
)

// Kind enumerates traced transitions.
type Kind int8

const (
	// Queued: a message entered its source queue.
	Queued Kind = iota
	// Injected: a message acquired its injection VC.
	Injected
	// Allocated: a header was allocated an output VC.
	Allocated
	// Blocked: a header found every candidate VC owned.
	Blocked
	// Unblocked: a previously blocked header acquired a VC.
	Unblocked
	// Delivered: the tail flit was consumed at the destination.
	Delivered
	// RecoveryStart: the message was selected as a deadlock victim.
	RecoveryStart
	// RecoveryDone: the victim was fully absorbed.
	RecoveryDone
	// Killed: the message was removed by a fault (dead channel or node,
	// or unroutable on the surviving graph).
	Killed
)

// String returns the event kind name.
func (k Kind) String() string {
	switch k {
	case Queued:
		return "queued"
	case Injected:
		return "injected"
	case Allocated:
		return "allocated"
	case Blocked:
		return "blocked"
	case Unblocked:
		return "unblocked"
	case Delivered:
		return "delivered"
	case RecoveryStart:
		return "recovery-start"
	case RecoveryDone:
		return "recovery-done"
	case Killed:
		return "killed"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// NumKinds is the number of event kinds.
const NumKinds = int(Killed) + 1

// Event is one traced transition.
type Event struct {
	Cycle int64
	Kind  Kind
	Msg   message.ID
	// VC is the virtual channel involved (Allocated/Injected), or NoVC.
	VC message.VC
	// Node is the router where the event occurred (-1 if not applicable).
	Node int
}

// String formats the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("[%8d] msg %-6d %-14s", e.Cycle, e.Msg, e.Kind)
	if e.VC != message.NoVC {
		s += fmt.Sprintf(" vc=%d", e.VC)
	}
	if e.Node >= 0 {
		s += fmt.Sprintf(" node=%d", e.Node)
	}
	return s
}

// Tracer consumes events. Implementations must be cheap; the network calls
// Trace from its cycle loop.
type Tracer interface {
	Trace(Event)
}

// Counter tallies events by kind; safe for concurrent readers after the run.
type Counter struct {
	Counts [NumKinds]int64
}

// Trace implements Tracer.
func (c *Counter) Trace(e Event) {
	if int(e.Kind) < NumKinds {
		c.Counts[e.Kind]++
	}
}

// Of returns the count for a kind.
func (c *Counter) Of(k Kind) int64 { return c.Counts[k] }

// Ring keeps the most recent Cap events for post-mortem inspection.
type Ring struct {
	Cap int

	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
}

// Trace implements Tracer.
func (r *Ring) Trace(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Cap <= 0 {
		r.Cap = 1024
	}
	if len(r.buf) < r.Cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.Cap
	}
	r.total++
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < r.Cap || r.next == 0 {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns the number of events ever traced.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Multi fans one event out to several tracers.
type Multi []Tracer

// Trace implements Tracer.
func (m Multi) Trace(e Event) {
	for _, t := range m {
		t.Trace(e)
	}
}
