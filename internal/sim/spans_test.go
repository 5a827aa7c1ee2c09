package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/trace"
)

// TestRunWithSpans: an end-to-end deadlocking run with a Perfetto timeline
// requested must produce a valid trace-event array carrying both tracks —
// message lifecycle spans (including recovery drains) and detector passes.
func TestRunWithSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	c := Quick()
	c.Load = 1.0 // saturate so deadlocks form and victims drain
	c.CheckInvariants = true
	c.SpansPath = path
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks == 0 {
		t.Fatal("saturating tiny run detected no deadlocks; no drain spans to check")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("spans output is not a JSON array: %v", err)
	}
	counts := map[string]int{}
	for i, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		if e["ph"] == "X" {
			counts[e["name"].(string)]++
		}
	}
	for _, want := range []string{"queued", "active", "blocked", "recovery-drain", "pass"} {
		if counts[want] == 0 {
			t.Errorf("no %q spans in trace (complete-event counts: %v)", want, counts)
		}
	}
	// Detector passes appear once per cadence tick over the whole run.
	if counts["pass"]+counts["gated"] < 2 {
		t.Errorf("detector track nearly empty: %v", counts)
	}
}

// TestRunWithSpansComposesTracer: SpansPath must stack on top of a
// configured Tracer, not replace it.
func TestRunWithSpansComposesTracer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	ring := &trace.Ring{Cap: 32}
	c := tiny()
	c.Tracer = ring
	c.SpansPath = path
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	if len(ring.Events()) == 0 {
		t.Error("ring tracer starved while spans attached")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"active"`) {
		t.Error("span writer got no lifecycle events")
	}
}
