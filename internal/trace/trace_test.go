package trace

import (
	"errors"
	"strings"
	"testing"

	"flexsim/internal/message"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Queued, Injected, Allocated, Blocked, Unblocked, Delivered, RecoveryStart, RecoveryDone, Killed}
	if len(kinds) != NumKinds {
		t.Fatalf("NumKinds = %d, enumerated %d", NumKinds, len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", k, s)
		}
		seen[s] = true
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 12, Kind: Allocated, Msg: 7, VC: 31, Node: 4}
	s := e.String()
	for _, want := range []string{"12", "msg 7", "allocated", "vc=31", "node=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("event %q missing %q", s, want)
		}
	}
	bare := Event{Cycle: 1, Kind: Delivered, Msg: 2, VC: message.NoVC, Node: -1}
	if s := bare.String(); strings.Contains(s, "vc=") || strings.Contains(s, "node=") {
		t.Errorf("bare event leaked fields: %q", s)
	}
}

// failWriter is a sink whose every write fails.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 3; i++ {
		c.Trace(Event{Kind: Blocked})
	}
	c.Trace(Event{Kind: Delivered})
	if c.Of(Blocked) != 3 || c.Of(Delivered) != 1 || c.Of(Queued) != 0 {
		t.Fatalf("counts: %+v", c.Counts)
	}
}

func TestRingWrapsAndOrders(t *testing.T) {
	r := &Ring{Cap: 4}
	for i := int64(1); i <= 10; i++ {
		r.Trace(Event{Cycle: i})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != int64(7+i) {
			t.Fatalf("event %d cycle %d, want %d (oldest first)", i, e.Cycle, 7+i)
		}
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := &Ring{Cap: 8}
	r.Trace(Event{Cycle: 1})
	r.Trace(Event{Cycle: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 {
		t.Fatalf("events: %+v", evs)
	}
}

func TestMulti(t *testing.T) {
	var a, b Counter
	m := Multi{&a, &b}
	m.Trace(Event{Kind: Queued})
	if a.Of(Queued) != 1 || b.Of(Queued) != 1 {
		t.Fatal("fan-out failed")
	}
}
