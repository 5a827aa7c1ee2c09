package obs_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/message"
	"flexsim/internal/obs"
	"flexsim/internal/sim"
	"flexsim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun executes the canonical deadlocking observability run — quick
// config at saturating load with interval metrics, an incident log fed by a
// trace ring, and DOT snapshots — and returns the rendered CSV and JSONL.
func goldenRun(t *testing.T) (metricsCSV, incidentsJSONL string) {
	t.Helper()
	ring := &trace.Ring{Cap: 64}
	log := &obs.IncidentLog{LastEvents: ring, MaxEvents: 4}
	var csv strings.Builder
	sink := obs.NewCSVSink(&csv)

	c := sim.Quick()
	c.Load = 1.0 // drive the quick config past saturation so deadlocks form
	c.Tracer = ring
	c.MetricsEvery = 100
	c.MetricsSink = sink
	c.Incidents = log
	c.IncidentDOT = true
	c.ForensicsDepth = 1 << 16 // formation metrics on every incident
	res, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks == 0 {
		t.Fatal("golden run detected no deadlocks; incidents would be empty")
	}
	var jsonl strings.Builder
	if err := log.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return csv.String(), jsonl.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; run with -update and review the diff", name)
	}
}

// TestGoldenArtifacts pins the exported metrics and incident schemas: a
// deterministic deadlocking run must reproduce the golden CSV and JSONL
// byte-for-byte (no wall-clock leaks into either format).
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-config run")
	}
	metricsCSV, incidentsJSONL := goldenRun(t)
	if !strings.Contains(metricsCSV, "\n") || incidentsJSONL == "" {
		t.Fatalf("empty artifacts: %d byte CSV, %d byte JSONL", len(metricsCSV), len(incidentsJSONL))
	}
	checkGolden(t, "metrics.golden.csv", metricsCSV)
	checkGolden(t, "incidents.golden.jsonl", incidentsJSONL)
	assertFormation(t, incidentsJSONL)
}

// assertFormation checks the forensic invariants on every golden incident:
// formation metrics present, knot closure no later than detection, no
// earlier than the first blocked member, and a strictly positive formation
// window for multi-message knots (members cannot all have stalled at once
// in this run).
func assertFormation(t *testing.T, jsonl string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(jsonl), "\n") {
		var inc obs.Incident
		if err := json.Unmarshal([]byte(line), &inc); err != nil {
			t.Fatalf("incident %d: %v", n, err)
		}
		f := inc.Formation
		if f == nil {
			t.Fatalf("incident %d lacks formation metrics", inc.Seq)
		}
		if f.KnotClosed > inc.Cycle {
			t.Errorf("incident %d: knot closed at %d after detection at %d", inc.Seq, f.KnotClosed, inc.Cycle)
		}
		if f.FirstBlocked > f.KnotClosed {
			t.Errorf("incident %d: first blocked %d after knot closure %d", inc.Seq, f.FirstBlocked, f.KnotClosed)
		}
		if f.FormationCycles != f.KnotClosed-f.FirstBlocked || f.DetectionLag != inc.Cycle-f.KnotClosed {
			t.Errorf("incident %d: inconsistent durations %+v", inc.Seq, f)
		}
		if inc.DeadlockSet > 1 && f.FormationCycles <= 0 {
			t.Errorf("incident %d: %d-message knot with formation window %d", inc.Seq, inc.DeadlockSet, f.FormationCycles)
		}
		if len(f.Trajectory) == 0 {
			t.Errorf("incident %d: empty blocked-set trajectory", inc.Seq)
		}
		for i := 1; i < len(f.Trajectory); i++ {
			if f.Trajectory[i].Cycle <= f.Trajectory[i-1].Cycle {
				t.Errorf("incident %d: non-increasing trajectory cycles %+v", inc.Seq, f.Trajectory)
			}
		}
		n++
	}
	if n == 0 {
		t.Fatal("no incidents to assert on")
	}
}

// TestPrometheusExpositionGolden pins the /metrics exposition format: every
// gauge must carry its # HELP and # TYPE lines and render the stored values
// byte-for-byte.
func TestPrometheusExpositionGolden(t *testing.T) {
	var live obs.Live
	live.Store(obs.Gauges{
		Cycle: 12345, Active: 210, Blocked: 87, Queued: 44,
		Flits: 5120, Delivered: 9876, Recovered: 12, Generated: 9932,
		Deadlocks: 7, Invocations: 246, Gated: 198,
		FaultsActive: 3, MsgsKilled: 5,
	})
	var b strings.Builder
	if err := live.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if c := strings.Count(out, "# HELP "); c == 0 || c != strings.Count(out, "# TYPE ") {
		t.Fatalf("unbalanced HELP/TYPE lines:\n%s", out)
	}
	checkGolden(t, "prometheus.golden.txt", out)
}

// TestIncidentFaultContextGolden pins the incident schema under fault
// injection: an incident captured with a non-empty active-fault context
// must round-trip through WriteJSONL with the fault fields intact, and the
// rendered JSONL must match the golden byte-for-byte.
func TestIncidentFaultContextGolden(t *testing.T) {
	faults := []string{"link-down ch=3 (1->2)", "node-down node=5"}
	log := &obs.IncidentLog{FaultContext: func() []string { return faults }}
	log.ObserveDeadlock(detect.Observation{
		Cycle: 1200,
		Deadlock: &cwg.Deadlock{
			KnotVCs:     []message.VC{1, 2},
			DeadlockSet: []message.ID{4, 5},
			ResourceSet: []message.VC{1, 2, 3},
			KnotCycles:  1,
			Kind:        cwg.SingleCycle,
		},
		Victim: 4,
		Policy: detect.OldestBlocked,
	})
	log.RecoveryDone(4, 1260)

	var b strings.Builder
	if err := log.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "incidents_faulty.golden.jsonl", b.String())

	var inc obs.Incident
	if err := json.Unmarshal([]byte(strings.TrimSpace(b.String())), &inc); err != nil {
		t.Fatal(err)
	}
	if inc.FaultsActive != 2 || len(inc.ActiveFaults) != 2 {
		t.Fatalf("fault context lost in round trip: %+v", inc)
	}
	if inc.ActiveFaults[0] != faults[0] || inc.ActiveFaults[1] != faults[1] {
		t.Fatalf("ActiveFaults = %v, want %v", inc.ActiveFaults, faults)
	}
	// The captured incident must own a copy, not alias the injector's
	// mutable active set.
	faults[0] = "mutated"
	if log.Incidents()[0].ActiveFaults[0] == "mutated" {
		t.Fatal("incident aliases the caller's fault slice")
	}
}

// TestIncidentNoFaultContextOmitted: healthy runs must not grow fault
// fields in their incident records.
func TestIncidentNoFaultContextOmitted(t *testing.T) {
	log := &obs.IncidentLog{}
	log.ObserveDeadlock(detect.Observation{
		Cycle:    10,
		Deadlock: &cwg.Deadlock{Kind: cwg.SingleCycle},
		Victim:   -1,
		Policy:   detect.OldestBlocked,
	})
	var b strings.Builder
	if err := log.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "faults_active") || strings.Contains(b.String(), "active_faults") {
		t.Fatalf("healthy incident leaked fault fields: %s", b.String())
	}
}

// TestGoldenRunDeterministic re-executes the golden run and requires
// identical artifacts — the recorder and incident log must be pure
// functions of the seed.
func TestGoldenRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-config runs")
	}
	csv1, jsonl1 := goldenRun(t)
	csv2, jsonl2 := goldenRun(t)
	if csv1 != csv2 {
		t.Error("metrics CSV differs between identical runs")
	}
	if jsonl1 != jsonl2 {
		t.Error("incidents JSONL differs between identical runs")
	}
}
