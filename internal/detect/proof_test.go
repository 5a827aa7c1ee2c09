package detect_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/fault"
	"flexsim/internal/sim"
)

// faultSchedules are the fault schedules of sim's fault-mutation tests on
// the bidirectional 4-ary 2-cube, as fault events (their absorbs aside): a
// link and a single VC failed and repaired under parked headers, the same
// under frozen TFAR worms, and two routers failed and a link failed and
// repaired under saturated DOR.
var faultSchedules = map[string][]fault.Event{
	"parked": {
		{Cycle: 350, Kind: fault.LinkDown, Ch: 38},
		{Cycle: 400, Kind: fault.LinkUp, Ch: 38},
		{Cycle: 500, Kind: fault.VCDown, Ch: 30},
		{Cycle: 550, Kind: fault.VCUp, Ch: 30},
	},
	"frozen": {
		{Cycle: 365, Kind: fault.LinkDown, Ch: 54},
		{Cycle: 385, Kind: fault.LinkUp, Ch: 54},
		{Cycle: 420, Kind: fault.VCDown, Ch: 48},
		{Cycle: 440, Kind: fault.VCUp, Ch: 48},
	},
	"injection": {
		{Cycle: 340, Kind: fault.NodeDown, Node: 6},
		{Cycle: 380, Kind: fault.NodeDown, Node: 9},
		{Cycle: 420, Kind: fault.LinkDown, Ch: 7},
		{Cycle: 460, Kind: fault.LinkUp, Ch: 7},
	},
}

// TestProofIsExact holds the knot-freedom proof to the graph path in both
// directions: on every checked state of a grid of runs, the proof holds iff
// the state's CWG has no knot, and it counts the blocked messages the
// graph's analysis does. The grid is DOR and TFAR at 1 and 2 VCs on
// unidirectional and bidirectional tori, loads 0.1 to 1.0, recovery on and
// off, and on the bidirectional torus each fault schedule above.
func TestProofIsExact(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if testing.Short() {
		loads = []float64{0.2, 0.6, 1.0}
	}
	var passes, knotted int
	for _, routing := range []string{"dor", "tfar"} {
		for _, vcs := range []int{1, 2} {
			for _, bi := range []bool{false, true} {
				schedules := []string{""}
				if bi {
					schedules = append(schedules, "parked", "frozen", "injection")
				}
				for _, sched := range schedules {
					for _, load := range loads {
						for _, recover := range []bool{true, false} {
							cfg := sim.Default()
							cfg.K, cfg.Bidirectional = 4, bi
							cfg.Routing, cfg.VCs, cfg.Load, cfg.Recover = routing, vcs, load, recover
							cfg.FaultEvents = faultSchedules[sched]
							name := fmt.Sprintf("%s%d bi=%v faults=%q load=%.1f recover=%v", routing, vcs, bi, sched, load, recover)
							p, k := checkProof(t, name, cfg)
							passes += p
							knotted += k
						}
					}
				}
			}
		}
	}
	t.Logf("%d passes checked, %d with knots", passes, knotted)
	if knotted == 0 || knotted == passes {
		t.Fatalf("%d of %d passes knotted: the grid no longer tests both verdicts", knotted, passes)
	}
}

// checkProof steps one run for 1000 cycles and, every 10 cycles, compares
// the proof with the knots of the CWG built from the same state. A second
// detector asks, so the run's own detection is untouched.
func checkProof(t *testing.T, name string, cfg sim.Config) (passes, knotted int) {
	t.Helper()
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, err := detect.New(r.Net, detect.Config{Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		r.StepCycle()
		if i%10 != 0 {
			continue
		}
		blocked, proved := d.ProveKnotFree()
		snap := d.Snapshot()
		knots := len(cwg.Build(snap).FindKnots())
		passes++
		if knots > 0 {
			knotted++
		}
		if proved != (knots == 0) {
			t.Fatalf("%s, cycle %d: proof says knot-free=%v, the CWG has %d knot(s)", name, r.Net.Now(), proved, knots)
		}
		want := 0
		for _, m := range snap {
			if m.Blocked {
				want++
			}
		}
		if blocked != want {
			t.Fatalf("%s, cycle %d: proof counts %d blocked messages, the snapshot %d", name, r.Net.Now(), blocked, want)
		}
	}
	return passes, knotted
}

// TestProvedPassCountsAsFullPass: on a knot-free state a pass answered by
// the proof returns what the graph path returns and is counted as a clean
// full pass: invoked and not gated, timed with a zero build and the proof's
// time as analysis, reported to OnPass, and arming the change gate.
func TestProvedPassCountsAsFullPass(t *testing.T) {
	cfg := sim.Default()
	cfg.K, cfg.Routing, cfg.VCs, cfg.Load = 4, "dateline-dor", 2, 1.0
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		r.StepCycle()
	}
	var infos []detect.PassInfo
	dc := detect.Config{Every: 50, CountKnotCycles: true, OnPass: func(p detect.PassInfo) { infos = append(infos, p) }}
	proved, err := detect.New(r.Net, dc)
	if err != nil {
		t.Fatal(err)
	}
	dc.OnPass = nil
	graph, err := detect.New(r.Net, dc)
	if err != nil {
		t.Fatal(err)
	}
	if blocked, ok := proved.ProveKnotFree(); !ok || blocked == 0 {
		t.Fatalf("setup: proof %v over %d blocked messages; want a knot-free state with blocked messages", ok, blocked)
	}

	an := proved.DetectNow()
	graph.Invalidate()
	want := graph.DetectNow()
	if !reflect.DeepEqual(an, want) {
		t.Errorf("proved pass returned %+v, the graph path %+v", an, want)
	}
	if got, want := proved.Stats.Simulated(), graph.Stats.Simulated(); !reflect.DeepEqual(got, want) {
		t.Errorf("proved pass counted %+v, the graph path %+v", got, want)
	}
	if proved.Stats.Invocations != 1 || proved.Stats.GatedInvocations != 0 {
		t.Errorf("invocations %d, gated %d; want 1, 0", proved.Stats.Invocations, proved.Stats.GatedInvocations)
	}
	b, a := &proved.Stats.DetectBuildTime, &proved.Stats.DetectAnalyzeTime
	if len(infos) != 1 {
		t.Fatalf("OnPass called %d times, want 1", len(infos))
	}
	p := infos[0]
	if p.Gated || p.BuildNs != 0 || p.Deadlocks != 0 || p.Cycle != r.Net.Now() {
		t.Errorf("OnPass got %+v; want an ungated pass at cycle %d with BuildNs 0 and no deadlock", p, r.Net.Now())
	}
	if b.Count() != 1 || b.Sum() != 0 || a.Count() != 1 || a.Sum() != p.AnalyzeNs {
		t.Errorf("timing: build %d samples sum %d, analyze %d samples sum %d; want one 0 ns build and one %d ns analysis",
			b.Count(), b.Sum(), a.Count(), a.Sum(), p.AnalyzeNs)
	}

	proved.DetectNow()
	if proved.Stats.GatedInvocations != 1 {
		t.Errorf("the pass after a proved one was not gated: %+v", proved.Stats)
	}
	proved.Invalidate()
	proved.DetectNow()
	if n := proved.Stats.DetectBuildTime.Count(); n != 2 || proved.Stats.DetectBuildTime.Sum() == 0 {
		t.Errorf("the pass after Invalidate built nothing: %d build samples summing %d ns", n, proved.Stats.DetectBuildTime.Sum())
	}
}
