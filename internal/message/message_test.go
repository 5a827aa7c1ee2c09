package message

import (
	"strings"
	"testing"
)

func TestNewMessage(t *testing.T) {
	m := New(7, 3, 9, 32, 100)
	if m.ID != 7 || m.Src != 3 || m.Dst != 9 || m.Len != 32 {
		t.Fatalf("fields wrong: %+v", m)
	}
	if m.Status != Queued {
		t.Errorf("status = %v, want queued", m.Status)
	}
	if m.SrcRemaining != 32 {
		t.Errorf("SrcRemaining = %d, want 32", m.SrcRemaining)
	}
	if m.CurDim != -1 {
		t.Errorf("CurDim = %d, want -1", m.CurDim)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("fresh message violates invariants: %v", err)
	}
}

func TestHeadVC(t *testing.T) {
	m := New(1, 0, 1, 4, 0)
	if m.HeadVC() != NoVC {
		t.Error("empty message has a head VC")
	}
	m.Acquire(10)
	m.Acquire(20)
	if m.HeadVC() != 20 {
		t.Errorf("HeadVC = %d, want 20", m.HeadVC())
	}
	m.Released = 2
	if m.HeadVC() != NoVC {
		t.Error("fully released message still has a head VC")
	}
}

func TestAcquireAndOwned(t *testing.T) {
	m := New(1, 0, 1, 4, 0)
	m.Acquire(5)
	m.Acquire(6)
	m.Acquire(7)
	if m.OwnedCount() != 3 {
		t.Fatalf("OwnedCount = %d", m.OwnedCount())
	}
	owned := m.OwnedVCs(nil)
	if len(owned) != 3 || owned[0] != 5 || owned[2] != 7 {
		t.Fatalf("OwnedVCs = %v", owned)
	}
	m.Released = 1
	owned = m.OwnedVCs(nil)
	if len(owned) != 2 || owned[0] != 6 {
		t.Fatalf("OwnedVCs after release = %v", owned)
	}
	if len(m.Hops) != 3 || m.Hops[2] != (Hop{VC: 7}) {
		t.Fatalf("Hops = %v, want three empty hops ending in VC 7", m.Hops)
	}
}

func TestInNetwork(t *testing.T) {
	m := New(1, 0, 1, 10, 0)
	m.Acquire(1)
	m.SrcRemaining = 6
	m.Hops[0].Occ = 3
	m.Consumed = 1
	if got := m.InNetwork(); got != 3 {
		t.Errorf("InNetwork = %d, want 3", got)
	}
}

func TestCheckInvariantsViolations(t *testing.T) {
	base := func() *Message {
		m := New(1, 0, 1, 8, 0)
		m.Acquire(1)
		m.Acquire(2)
		m.SrcRemaining = 4
		m.Hops[0].Occ = 2
		m.Hops[1].Occ = 2
		m.Hops[0].Departed = 2
		return m
	}
	if err := base().CheckInvariants(); err != nil {
		t.Fatalf("base state should be valid: %v", err)
	}

	m := base()
	m.Hops[0].Occ = -1
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "negative occupancy") {
		t.Errorf("negative occupancy not caught: %v", err)
	}

	m = base()
	m.Consumed = 5
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Errorf("conservation violation not caught: %v", err)
	}

	m = base()
	m.Released = 3
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad Released not caught: %v", err)
	}

	m = base()
	m.Released = 1 // slot 0 released with only 2/8 departed
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "released") {
		t.Errorf("premature release not caught: %v", err)
	}

	m = base()
	m.Hops[1].Departed = 3 // more than departed from upstream slot
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "monotone") {
		t.Errorf("non-monotone departures not caught: %v", err)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Queued: "queued", Active: "active", Delivered: "delivered",
		Recovering: "recovering", Recovered: "recovered",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
	if got := Status(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown status string = %q", got)
	}
}

func TestMessageString(t *testing.T) {
	m := New(3, 1, 2, 16, 0)
	m.Acquire(4)
	s := m.String()
	for _, want := range []string{"msg 3", "1->2", "len=16", "queued"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
