package trace

// Span derivation: lifecycle events are instants, but most forensic
// questions are about intervals — how long a message sat in its source
// queue, how long it was blocked and where, how long a recovery drain took.
// A spanTracker folds the event stream into closed [start, end] spans; the
// PerfettoWriter streams them as a Chrome trace-event timeline.

import (
	"fmt"
	"sort"

	"flexsim/internal/message"
)

// SpanKind enumerates the interval types derived from the event stream.
type SpanKind int8

const (
	// SpanQueued: source queue residency (Queued -> Injected, or Killed
	// while still queued).
	SpanQueued SpanKind = iota
	// SpanActive: in-network lifetime (Injected -> Delivered,
	// RecoveryStart or Killed).
	SpanActive
	// SpanBlocked: one blocking episode (Blocked -> Unblocked, or a
	// terminal transition while still blocked).
	SpanBlocked
	// SpanDrain: recovery absorption (RecoveryStart -> RecoveryDone).
	SpanDrain
)

// NumSpanKinds is the number of span kinds.
const NumSpanKinds = int(SpanDrain) + 1

// String returns the span kind name.
func (k SpanKind) String() string {
	switch k {
	case SpanQueued:
		return "queued"
	case SpanActive:
		return "active"
	case SpanBlocked:
		return "blocked"
	case SpanDrain:
		return "recovery-drain"
	default:
		return fmt.Sprintf("SpanKind(%d)", int8(k))
	}
}

// NoOutcome marks a span that was still open when the trace ended; it is
// not a traced transition and never appears in the event stream.
const NoOutcome Kind = -1

// Span is one closed interval in a message's lifecycle.
type Span struct {
	Kind SpanKind
	Msg  message.ID
	// Start and End are cycle stamps; End >= Start. A zero-length span is
	// legal (e.g. a message that blocked and unblocked in the same cycle).
	Start, End int64
	// Node is the router where a blocking episode began (SpanBlocked),
	// or -1.
	Node int
	// Outcome is the event kind that closed the span, or NoOutcome when
	// the span was force-closed at end of trace.
	Outcome Kind
}

// OutcomeName returns the stable name of the closing transition.
func (s Span) OutcomeName() string {
	if s.Outcome == NoOutcome {
		return "end-of-trace"
	}
	return s.Outcome.String()
}

// String formats the span for logs.
func (s Span) String() string {
	str := fmt.Sprintf("[%8d +%6d] msg %-6d %-14s -> %s",
		s.Start, s.End-s.Start, s.Msg, s.Kind, s.OutcomeName())
	if s.Node >= 0 {
		str += fmt.Sprintf(" node=%d", s.Node)
	}
	return str
}

// openSpans tracks the not-yet-closed intervals of one message. A negative
// stamp means the span of that kind is not open.
type openSpans struct {
	queuedAt  int64
	activeAt  int64
	blockedAt int64
	blockNode int
	drainAt   int64
}

// spanTracker derives spans from the event stream, invoking emit for every
// span as it closes. It is not safe for concurrent use; tracers that wrap
// it provide their own locking if needed.
type spanTracker struct {
	emit func(Span)
	open map[message.ID]*openSpans
	last int64
}

func (t *spanTracker) get(id message.ID) *openSpans {
	if t.open == nil {
		t.open = make(map[message.ID]*openSpans)
	}
	o := t.open[id]
	if o == nil {
		o = &openSpans{queuedAt: -1, activeAt: -1, blockedAt: -1, blockNode: -1, drainAt: -1}
		t.open[id] = o
	}
	return o
}

// close emits a span for every open interval of o, innermost first
// (blocked before active), stamped with the given end and outcome.
func (t *spanTracker) close(id message.ID, o *openSpans, end int64, outcome Kind) {
	if o.queuedAt >= 0 {
		t.emit(Span{Kind: SpanQueued, Msg: id, Start: o.queuedAt, End: end, Node: -1, Outcome: outcome})
		o.queuedAt = -1
	}
	if o.blockedAt >= 0 {
		t.emit(Span{Kind: SpanBlocked, Msg: id, Start: o.blockedAt, End: end, Node: o.blockNode, Outcome: outcome})
		o.blockedAt, o.blockNode = -1, -1
	}
	if o.activeAt >= 0 {
		t.emit(Span{Kind: SpanActive, Msg: id, Start: o.activeAt, End: end, Node: -1, Outcome: outcome})
		o.activeAt = -1
	}
	if o.drainAt >= 0 {
		t.emit(Span{Kind: SpanDrain, Msg: id, Start: o.drainAt, End: end, Node: -1, Outcome: outcome})
		o.drainAt = -1
	}
}

// feed folds one event into the open-span state, closing spans as the
// message transitions.
func (t *spanTracker) feed(e Event) {
	if e.Cycle > t.last {
		t.last = e.Cycle
	}
	switch e.Kind {
	case Queued:
		t.get(e.Msg).queuedAt = e.Cycle
	case Injected:
		o := t.get(e.Msg)
		if o.queuedAt >= 0 {
			t.emit(Span{Kind: SpanQueued, Msg: e.Msg, Start: o.queuedAt, End: e.Cycle, Node: -1, Outcome: Injected})
			o.queuedAt = -1
		}
		o.activeAt = e.Cycle
	case Blocked:
		o := t.get(e.Msg)
		o.blockedAt, o.blockNode = e.Cycle, e.Node
	case Unblocked:
		o := t.get(e.Msg)
		if o.blockedAt >= 0 {
			t.emit(Span{Kind: SpanBlocked, Msg: e.Msg, Start: o.blockedAt, End: e.Cycle, Node: o.blockNode, Outcome: Unblocked})
			o.blockedAt, o.blockNode = -1, -1
		}
	case Delivered, Killed:
		if o, ok := t.open[e.Msg]; ok {
			t.close(e.Msg, o, e.Cycle, e.Kind)
			delete(t.open, e.Msg)
		}
	case RecoveryStart:
		o := t.get(e.Msg)
		t.close(e.Msg, o, e.Cycle, RecoveryStart)
		o.drainAt = e.Cycle
	case RecoveryDone:
		if o, ok := t.open[e.Msg]; ok {
			t.close(e.Msg, o, e.Cycle, RecoveryDone)
			delete(t.open, e.Msg)
		}
	case Allocated:
		// Per-hop allocation is an instant inside the active span; it
		// opens nothing.
	}
}

// finish closes every still-open span at the last cycle seen, in message-ID
// order so the output is deterministic, and resets the tracker.
func (t *spanTracker) finish() {
	ids := make([]message.ID, 0, len(t.open))
	for id := range t.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t.close(id, t.open[id], t.last, NoOutcome)
	}
	t.open = nil
}
