package obs_test

import (
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
	"flexsim/internal/obs"
	"flexsim/internal/sim"
)

// deadlockedRunner steps a recovery-disabled saturating run to its first
// detected deadlock and returns the runner frozen at the detection cycle
// together with the live CWG analysis (what flexsim -dot inspects).
func deadlockedRunner(t *testing.T, forensicsDepth int) (*sim.Runner, *cwg.Graph, cwg.Analysis) {
	t.Helper()
	cfg := sim.Quick()
	cfg.Load = 1.0
	cfg.Recover = false
	cfg.WarmupCycles = 0
	cfg.ForensicsDepth = forensicsDepth
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 50000; cycle++ {
		r.StepCycle()
		if r.Net.Now()%int64(cfg.DetectEvery) != 0 {
			continue
		}
		g := cwg.Build(r.Detector.Snapshot())
		if an := g.Analyze(cwg.Options{}); len(an.Deadlocks) > 0 {
			return r, g, an
		}
	}
	t.Fatal("no deadlock within 50000 cycles at saturating load")
	return nil, nil, cwg.Analysis{}
}

// hasKnotOverlap reports whether any knot of g intersects the given VC set.
func hasKnotOverlap(g *cwg.Graph, knotVCs []message.VC) bool {
	want := make(map[message.VC]bool, len(knotVCs))
	for _, vc := range knotVCs {
		want[vc] = true
	}
	verts := g.VCs()
	for _, knot := range g.FindKnots() {
		for _, v := range knot {
			if want[verts[v]] {
				return true
			}
		}
	}
	return false
}

// TestFormationReplayMatchesLive: rewinding zero events must reproduce the
// exact graph the detector just analyzed — same vertices, arcs, and knots —
// and do so deterministically across repeated replays.
func TestFormationReplayMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-config run")
	}
	r, g, an := deadlockedRunner(t, 1<<16)
	if r.Forensics == nil {
		t.Fatal("ForensicsDepth > 0 did not attach an analyzer")
	}
	now := r.Net.Now()
	for i := 0; i < 2; i++ {
		rg, ok := r.Forensics.CWGAt(now)
		if !ok {
			t.Fatalf("CWGAt(now=%d) outside window (replay %d)", now, i)
		}
		if rg.NumVertices() != g.NumVertices() || rg.NumEdges() != g.NumEdges() {
			t.Fatalf("replay %d: %d vertices / %d arcs, live has %d / %d",
				i, rg.NumVertices(), rg.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		if got, want := len(rg.FindKnots()), len(g.FindKnots()); got != want {
			t.Fatalf("replay %d: %d knots, live has %d", i, got, want)
		}
		if !hasKnotOverlap(rg, an.Deadlocks[0].KnotVCs) {
			t.Fatalf("replay %d lost the detected knot %v", i, an.Deadlocks[0].KnotVCs)
		}
	}
}

// TestFormationAnalyzeBisection: Analyze must place the knot closure
// exactly — the knot exists in the replay at KnotClosed and is absent one
// cycle earlier — with internally consistent durations.
func TestFormationAnalyzeBisection(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-config run")
	}
	r, _, an := deadlockedRunner(t, 1<<16)
	now := r.Net.Now()
	dl := &an.Deadlocks[0]
	f := r.Forensics.Analyze(now, dl)
	if f == nil {
		t.Fatal("Analyze returned nil for a live deadlock")
	}
	if f.Truncated {
		t.Fatalf("2^16-event ring truncated on a quick run: %+v", f)
	}
	if f.FirstBlocked > f.KnotClosed || f.KnotClosed > now {
		t.Fatalf("ordering violated: first=%d closed=%d detected=%d", f.FirstBlocked, f.KnotClosed, now)
	}
	if f.FormationCycles != f.KnotClosed-f.FirstBlocked || f.DetectionLag != now-f.KnotClosed {
		t.Fatalf("inconsistent durations: %+v", f)
	}
	at, ok := r.Forensics.CWGAt(f.KnotClosed)
	if !ok || !hasKnotOverlap(at, dl.KnotVCs) {
		t.Fatalf("knot absent at its own closure cycle %d (ok=%v)", f.KnotClosed, ok)
	}
	if f.KnotClosed > f.FirstBlocked {
		before, ok := r.Forensics.CWGAt(f.KnotClosed - 1)
		if !ok {
			t.Fatalf("cycle %d inside [first, closed) not replayable", f.KnotClosed-1)
		}
		if hasKnotOverlap(before, dl.KnotVCs) {
			t.Fatalf("knot already present one cycle before closure %d", f.KnotClosed)
		}
	}
	if len(f.Trajectory) == 0 {
		t.Fatal("empty trajectory")
	}
	last := f.Trajectory[len(f.Trajectory)-1]
	if last.Members < len(dl.DeadlockSet) {
		t.Errorf("trajectory ends with %d blocked members, deadlock set has %d", last.Members, len(dl.DeadlockSet))
	}
}

// TestFormationWindowBounds: CWGAt refuses cycles outside the replayable
// window, and a nil analyzer (forensics disabled) is safe to query.
func TestFormationWindowBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-config run")
	}
	r, _, _ := deadlockedRunner(t, 1<<16)
	if _, ok := r.Forensics.CWGAt(r.Net.Now() + 1); ok {
		t.Error("CWGAt accepted a future cycle")
	}
	if _, ok := r.Forensics.CWGAt(-1); ok {
		t.Error("CWGAt accepted a negative cycle")
	}
	var disabled *obs.FormationAnalyzer
	if _, ok := disabled.CWGAt(0); ok {
		t.Error("nil analyzer claimed a replay")
	}
}

// TestFormationTruncatedRing: with a ring far smaller than the formation
// window the analyzer must degrade honestly — flag the truncation, keep the
// invariants, and never claim a closure before its own horizon.
func TestFormationTruncatedRing(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-config run")
	}
	r, _, an := deadlockedRunner(t, 64)
	now := r.Net.Now()
	f := r.Forensics.Analyze(now, &an.Deadlocks[0])
	if f == nil {
		t.Fatal("Analyze returned nil for a live deadlock")
	}
	min := r.Forensics.MinReplayCycle()
	if f.KnotClosed < min {
		t.Fatalf("closure %d before the replay horizon %d", f.KnotClosed, min)
	}
	if f.KnotClosed > now || f.DetectionLag != now-f.KnotClosed {
		t.Fatalf("inconsistent truncated result: %+v", f)
	}
	if min > f.FirstBlocked && !f.Truncated {
		t.Fatalf("horizon %d past first block %d but Truncated unset", min, f.FirstBlocked)
	}
}
