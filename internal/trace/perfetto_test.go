package trace

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"
)

// decodePerfetto parses a finished writer's output as the Chrome
// trace-event schema: a JSON array of objects, each with ph/ts/pid/tid.
func decodePerfetto(t *testing.T, out string) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal([]byte(out), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	for i, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
	}
	return events
}

// TestPerfettoValidTrace: a small lifecycle plus detector passes renders as
// a valid trace-event array with complete spans on both tracks.
func TestPerfettoValidTrace(t *testing.T) {
	var b strings.Builder
	p := NewPerfetto(&b)
	p.Trace(ev(0, Queued, 1, 2))
	p.Trace(ev(4, Injected, 1, 2))
	p.Trace(ev(9, Blocked, 1, 3))
	p.DetectorPass(50, 1500, 700, 0, false)
	p.DetectorPass(100, 0, 0, 0, true)
	p.Trace(ev(120, Unblocked, 1, 3))
	p.Trace(ev(130, Delivered, 1, 6))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	events := decodePerfetto(t, b.String())

	var names []string
	var complete, meta int
	for _, e := range events {
		names = append(names, e["name"].(string))
		switch e["ph"] {
		case "X":
			complete++
			if _, ok := e["dur"]; !ok {
				t.Errorf("complete event lacks dur: %v", e)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"process_name", "thread_name", "queued", "blocked", "active", "pass", "gated"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q event in %s", want, joined)
		}
	}
	// 3 metadata + queued + blocked + active + 2 detector passes.
	if meta != 3 || complete != 5 {
		t.Errorf("meta=%d complete=%d, want 3/5 (%s)", meta, complete, joined)
	}
	// The blocked span must carry cycle-addressed timing: ts 9, dur 111.
	for _, e := range events {
		if e["name"] == "blocked" {
			if e["ts"].(float64) != 9 || e["dur"].(float64) != 111 {
				t.Errorf("blocked span timing = ts %v dur %v", e["ts"], e["dur"])
			}
		}
	}
}

// TestPerfettoProcessMetadata: the message (pid 1), detector (pid 2) and
// fleet (pid 4) tracks coexist in one valid array, each named by exactly one
// process_name record, and no other process appears.
func TestPerfettoProcessMetadata(t *testing.T) {
	var b strings.Builder
	p := NewPerfetto(&b)
	p.Trace(ev(0, Injected, 1, 0))
	p.Trace(ev(80, Delivered, 1, 5))
	p.DetectorPass(50, 1200, 300, 0, false)
	p.FleetThread(0, "w1")
	p.FleetThread(1, "w2")
	p.FleetThread(0, "w1")
	p.FleetSlice(0, "attempt", 10, 5, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	procs := map[float64]int{}
	for _, e := range decodePerfetto(t, b.String()) {
		if e["name"] == "process_name" {
			procs[e["pid"].(float64)]++
		} else if pid := e["pid"].(float64); pid != perfettoMessagesPID && pid != perfettoDetectorPID && pid != perfettoFleetPID {
			t.Errorf("event on unknown pid %v: %v", pid, e)
		}
	}
	want := map[float64]int{perfettoMessagesPID: 1, perfettoDetectorPID: 1, perfettoFleetPID: 1}
	if !maps.Equal(procs, want) {
		t.Errorf("process_name records by pid = %v, want %v", procs, want)
	}
}

// TestPerfettoCloseEndsOpenSpans: spans still open at Close terminate at
// the last seen cycle so the file is loadable mid-run.
func TestPerfettoCloseEndsOpenSpans(t *testing.T) {
	var b strings.Builder
	p := NewPerfetto(&b)
	p.Trace(ev(0, Injected, 3, 0))
	p.Trace(ev(10, Blocked, 3, 1))
	p.DetectorPass(60, 0, 0, 0, true) // advances the last-seen cycle
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	events := decodePerfetto(t, b.String())
	found := false
	for _, e := range events {
		if e["name"] == "blocked" {
			found = true
			if end := e["ts"].(float64) + e["dur"].(float64); end != 60 {
				t.Errorf("open span closed at %v, want 60", end)
			}
			args := e["args"].(map[string]any)
			if args["outcome"] != "end-of-trace" {
				t.Errorf("outcome = %v", args["outcome"])
			}
		}
	}
	if !found {
		t.Fatalf("no blocked span in %s", b.String())
	}
	// Idempotent: double Close and post-Close traffic are no-ops.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.Trace(ev(99, Queued, 9, 0))
	var check []any
	if err := json.Unmarshal([]byte(b.String()), &check); err != nil {
		t.Fatalf("output corrupted after double close: %v", err)
	}
}

// TestPerfettoEmpty: closing with no events still yields a valid array.
func TestPerfettoEmpty(t *testing.T) {
	var b strings.Builder
	p := NewPerfetto(&b)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if events := decodePerfetto(t, b.String()); len(events) == 0 {
		t.Fatal("expected at least the metadata event")
	}
}
