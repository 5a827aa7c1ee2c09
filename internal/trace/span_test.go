package trace

import (
	"strings"
	"testing"

	"flexsim/internal/message"
)

// ev builds a test event.
func ev(cycle int64, k Kind, msg message.ID, node int) Event {
	return Event{Cycle: cycle, Kind: k, Msg: msg, VC: message.NoVC, Node: node}
}

// spanLog collects the spans a spanTracker derives from the events it is fed.
type spanLog struct {
	Spans []Span
	tr    spanTracker
}

func (l *spanLog) Trace(e Event) {
	if l.tr.emit == nil {
		l.tr.emit = func(s Span) { l.Spans = append(l.Spans, s) }
	}
	l.tr.feed(e)
}

// Finish closes all open spans at the last traced cycle.
func (l *spanLog) Finish() { l.tr.finish() }

// TestKindStringExhaustive pins a distinct, stable name for every Kind so a
// newly added kind cannot silently print as "Kind(n)", and requires
// KindByName to round-trip each one (the JSON trace format depends on it).
func TestKindStringExhaustive(t *testing.T) {
	seen := make(map[string]Kind, NumKinds)
	for k := Kind(0); int(k) < NumKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Errorf("Kind %d has no explicit name: %q", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Kind %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Errorf("KindByName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if got := Kind(NumKinds).String(); !strings.HasPrefix(got, "Kind(") {
		t.Errorf("out-of-range kind printed as %q, want Kind(n) fallback", got)
	}
}

// TestSpanKindStringExhaustive does the same for the derived span kinds.
func TestSpanKindStringExhaustive(t *testing.T) {
	seen := make(map[string]bool, NumSpanKinds)
	for k := SpanKind(0); int(k) < NumSpanKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "SpanKind(") {
			t.Errorf("SpanKind %d has no explicit name: %q", k, name)
		}
		if seen[name] {
			t.Errorf("duplicate span kind name %q", name)
		}
		seen[name] = true
	}
	if got := SpanKind(NumSpanKinds).String(); !strings.HasPrefix(got, "SpanKind(") {
		t.Errorf("out-of-range span kind printed as %q", got)
	}
}

// TestSpanDerivationDelivered: the canonical delivered lifecycle produces
// queued, one blocked episode, and active spans with the right stamps.
func TestSpanDerivationDelivered(t *testing.T) {
	var l spanLog
	for _, e := range []Event{
		ev(10, Queued, 7, 3),
		ev(12, Injected, 7, 3),
		ev(20, Blocked, 7, 5),
		ev(33, Unblocked, 7, 5),
		ev(50, Delivered, 7, 9),
	} {
		l.Trace(e)
	}
	l.Finish()
	want := []Span{
		{Kind: SpanQueued, Msg: 7, Start: 10, End: 12, Node: -1, Outcome: Injected},
		{Kind: SpanBlocked, Msg: 7, Start: 20, End: 33, Node: 5, Outcome: Unblocked},
		{Kind: SpanActive, Msg: 7, Start: 12, End: 50, Node: -1, Outcome: Delivered},
	}
	if len(l.Spans) != len(want) {
		t.Fatalf("got %d spans %v, want %d", len(l.Spans), l.Spans, len(want))
	}
	for i, w := range want {
		if l.Spans[i] != w {
			t.Errorf("span %d = %+v, want %+v", i, l.Spans[i], w)
		}
	}
}

// TestSpanDerivationRecovery: a deadlock victim closes its blocked and
// active spans at RecoveryStart and gains a drain span.
func TestSpanDerivationRecovery(t *testing.T) {
	var l spanLog
	for _, e := range []Event{
		ev(0, Injected, 1, 0),
		ev(5, Blocked, 1, 2),
		ev(100, RecoveryStart, 1, -1),
		ev(140, RecoveryDone, 1, -1),
	} {
		l.Trace(e)
	}
	l.Finish()
	want := []Span{
		{Kind: SpanBlocked, Msg: 1, Start: 5, End: 100, Node: 2, Outcome: RecoveryStart},
		{Kind: SpanActive, Msg: 1, Start: 0, End: 100, Node: -1, Outcome: RecoveryStart},
		{Kind: SpanDrain, Msg: 1, Start: 100, End: 140, Node: -1, Outcome: RecoveryDone},
	}
	if len(l.Spans) != len(want) {
		t.Fatalf("got %v, want %d spans", l.Spans, len(want))
	}
	for i, w := range want {
		if l.Spans[i] != w {
			t.Errorf("span %d = %+v, want %+v", i, l.Spans[i], w)
		}
	}
}

// TestSpanDerivationKilledWhileQueued: a message dropped before injection
// closes only its queued span, with the Killed outcome.
func TestSpanDerivationKilledWhileQueued(t *testing.T) {
	var l spanLog
	l.Trace(ev(3, Queued, 9, 4))
	l.Trace(ev(8, Killed, 9, 4))
	l.Finish()
	if len(l.Spans) != 1 {
		t.Fatalf("spans = %v", l.Spans)
	}
	s := l.Spans[0]
	if s.Kind != SpanQueued || s.Msg != 9 || s.Start != 3 || s.End != 8 || s.Outcome != Killed {
		t.Fatalf("span = %+v", s)
	}
}

// TestSpanFinishClosesOpen: messages still in flight at end of trace close
// with NoOutcome at the last seen cycle, in message-id order.
func TestSpanFinishClosesOpen(t *testing.T) {
	var l spanLog
	l.Trace(ev(0, Injected, 5, 0))
	l.Trace(ev(2, Injected, 3, 0))
	l.Trace(ev(7, Blocked, 5, 1))
	l.Trace(ev(9, Allocated, 3, 2)) // advances the clock, opens nothing
	l.Finish()
	if len(l.Spans) != 3 {
		t.Fatalf("spans = %v", l.Spans)
	}
	// id order: msg 3's active span, then msg 5's blocked + active.
	if l.Spans[0].Msg != 3 || l.Spans[1].Msg != 5 || l.Spans[2].Msg != 5 {
		t.Fatalf("finish order wrong: %v", l.Spans)
	}
	for _, s := range l.Spans {
		if s.Outcome != NoOutcome || s.End != 9 {
			t.Errorf("open span not closed at last cycle with NoOutcome: %+v", s)
		}
		if s.OutcomeName() != "end-of-trace" {
			t.Errorf("OutcomeName = %q", s.OutcomeName())
		}
	}
	// Finish resets: feeding again must not panic or duplicate.
	l.Trace(ev(20, Injected, 8, 0))
	l.Finish()
	if n := len(l.Spans); n != 4 {
		t.Errorf("after reuse: %d spans", n)
	}
}

// TestSpanZeroLength: blocking and unblocking within one cycle yields a
// legal zero-length span.
func TestSpanZeroLength(t *testing.T) {
	var l spanLog
	l.Trace(ev(4, Injected, 2, 0))
	l.Trace(ev(6, Blocked, 2, 1))
	l.Trace(ev(6, Unblocked, 2, 1))
	l.Finish()
	if len(l.Spans) < 1 || l.Spans[0].Kind != SpanBlocked || l.Spans[0].End-l.Spans[0].Start != 0 {
		t.Fatalf("spans = %v", l.Spans)
	}
}
