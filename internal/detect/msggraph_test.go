package detect_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/sim"
)

// saturatedPoints are the eight configurations of the saturated-sweep
// benchmark workload: the paper's 16-ary 2-cube at two loads per algorithm
// and VC count, the cycle census on under the fig6/fig7 caps.
func saturatedPoints() []sim.Config {
	var cfgs []sim.Config
	add := func(routing string, vcs int, loads ...float64) {
		for _, l := range loads {
			c := sim.Default()
			c.Routing, c.VCs, c.Load = routing, vcs, l
			c.WarmupCycles, c.MeasureCycles = 750, 2250
			c.CycleCensus, c.MaxCycles, c.MaxWork = true, 100000, 2000000
			c.Seed = specv1.PointSeed(1997, len(cfgs))
			cfgs = append(cfgs, c)
		}
	}
	add("dor", 1, 0.4, 1.0)
	add("tfar", 1, 0.4, 1.0)
	add("dor", 2, 0.7, 1.0)
	add("tfar", 2, 0.7, 1.0)
	return cfgs
}

// TestDoomedIsUnprovedSaturated holds the message graph's doomed set to the
// messages the knot-freedom proof leaves unproved, as TestProofIsExact does
// on its grid, on the saturated-sweep configurations over 1500 cycles.
func TestDoomedIsUnprovedSaturated(t *testing.T) {
	var passes, knotted int
	for _, cfg := range saturatedPoints() {
		name := fmt.Sprintf("%s%d load=%.1f", cfg.Routing, cfg.VCs, cfg.Load)
		p, k := checkProof(t, name, cfg, 1500)
		passes += p
		knotted += k
	}
	t.Logf("%d passes checked, %d with knots", passes, knotted)
	if knotted == 0 {
		t.Fatal("no pass knotted: no doomed set was compared")
	}
}

// TestDORDependentsAreDoomed: under DOR with one VC a blocked header wants
// one VC, so a message blocked on a deadlock-set member is doomed with it.
// Every dependent of every knot must be in the message graph's doomed set,
// as ncyc == ndl holds there.
func TestDORDependentsAreDoomed(t *testing.T) {
	var dependents int
	for _, bi := range []bool{false, true} {
		for _, load := range []float64{0.6, 1.0} {
			cfg := sim.Default()
			cfg.K, cfg.Bidirectional, cfg.Routing, cfg.VCs, cfg.Load = 8, bi, "dor", 1, load
			r, err := sim.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := detect.New(r.Net, detect.Config{Every: 1})
			if err != nil {
				t.Fatal(err)
			}
			g := cwg.NewMsgGraph(r.Net.TotalVCs())
			for i := 1; i <= 1500; i++ {
				r.StepCycle()
				if i%10 != 0 {
					continue
				}
				g.Build(d.Snapshot())
				doomed := g.Doomed(nil)
				for _, dl := range g.Analyze(cwg.Options{}).Deadlocks {
					for _, id := range dl.Dependent {
						if _, ok := slices.BinarySearch(doomed, id); !ok {
							t.Fatalf("bi=%v load=%.1f cycle %d: dependent %d of knot %v is not doomed (%v)",
								bi, load, r.Net.Now(), id, dl.DeadlockSet, doomed)
						}
						dependents++
					}
				}
			}
		}
	}
	t.Logf("%d dependents checked", dependents)
	if dependents == 0 {
		t.Fatal("no knot had a dependent")
	}
}

// TestMessageGraphLockstep runs DOR1 at load 1.0 with random victims, where
// passes find several knots, twice in lockstep: once with the detector's
// message graph and once with every graph pass answered by the VC graph.
// Knot order fixes the random victims, the absorb order and the event log,
// so after every pass the two runs' records and events must be equal.
func TestMessageGraphLockstep(t *testing.T) {
	cfg := sim.Default()
	cfg.Routing, cfg.VCs, cfg.Load = "dor", 1, 1.0
	cfg.VictimPolicy, cfg.KeepEvents = "random", true
	runners := make([]*sim.Runner, 2)
	for i := range runners {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	msg, vc := runners[0], runners[1]
	vc.Detector.UseVCGraph()
	for i := 1; i <= 3000; i++ {
		msg.StepCycle()
		vc.StepCycle()
		if i%cfg.DetectEvery != 0 {
			continue
		}
		if a, b := msg.Detector.Stats.Simulated(), vc.Detector.Stats.Simulated(); !reflect.DeepEqual(a, b) {
			t.Fatalf("cycle %d: the message graph's run counted %+v, the VC graph's %+v", i, a, b)
		}
		if a, b := msg.Detector.Events, vc.Detector.Events; !reflect.DeepEqual(a, b) {
			t.Fatalf("cycle %d: the runs' events differ", i)
		}
	}
	perPass := map[int64]int{}
	for _, e := range msg.Detector.Events {
		perPass[e.Cycle]++
	}
	most := 0
	for _, n := range perPass {
		most = max(most, n)
	}
	t.Logf("%d knots in %d passes, at most %d in one", len(msg.Detector.Events), len(perPass), most)
	if most < 2 {
		t.Fatal("no pass found two knots: knot order went untested")
	}
}

// TestWorkCounts pins the detector's work counts on the saturated-sweep
// workload's TFAR2 point at load 1.0 (seed 1997): sums over a deterministic
// run, so they are the same on every host. A change that moves them changes
// how much graph work the detector does, and says so.
func TestWorkCounts(t *testing.T) {
	cfg := saturatedPoints()[7]
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	// The VC graph did 78 695 vertices, 87 945 arcs, 166 640 Tarjan visits,
	// 1 637 012 census and 239 600 knot edge visits on this run.
	want := detect.Work{Vertices: 12496, Arcs: 21711, TarjanVisits: 34207,
		CensusEdges: 744116, KnotEdges: 118917}
	if got := r.Detector.Work; got != want {
		t.Errorf("work %+v over %d passes, %d census samples; want %+v", got, res.Invocations, res.CensusSamples, want)
	}
}
