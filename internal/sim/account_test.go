package sim

import (
	"testing"

	"flexsim/internal/obs"
	"flexsim/internal/stats"
)

// deadlockAccount is a Result's per-knot block: the counts, the five sums
// and the three maxima the detector folds each deadlock into.
func deadlockAccount(r *stats.Result) [11]int64 {
	return [11]int64{
		r.Deadlocks, r.SingleCycle, r.MultiCycle,
		r.SumDeadlockSet, r.SumResourceSet, r.SumKnotVCs, r.SumKnotCycles, r.SumDependent,
		int64(r.MaxDeadlockSet), int64(r.MaxResourceSet), int64(r.MaxKnotCycles),
	}
}

// TestTwoAccountsOfOneRun: an incident log sees every deadlock of a run, one
// incident each, and the run's Result counts those detected after warmup.
// Recomputed from the incidents past the measurement boundary, the Result's
// deadlock block must come out the same; a warmup deadlock left in the
// record (a reset that missed the record the runner returns) breaks it.
func TestTwoAccountsOfOneRun(t *testing.T) {
	c := Quick()
	c.Routing, c.Bidirectional, c.VCs, c.Load = "dor", false, 1, 1.0
	log := &obs.IncidentLog{}
	c.Incidents = log
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var want stats.Result
	warmup := 0
	for _, inc := range log.Incidents() {
		if inc.Cycle <= int64(c.WarmupCycles) {
			warmup++
			continue
		}
		want.Deadlocks++
		if inc.Kind == "single-cycle" {
			want.SingleCycle++
		} else {
			want.MultiCycle++
		}
		want.SumDeadlockSet += int64(inc.DeadlockSet)
		want.SumResourceSet += int64(inc.ResourceSet)
		want.SumKnotVCs += int64(inc.KnotVCs)
		want.SumKnotCycles += int64(inc.KnotCycles)
		want.SumDependent += int64(inc.Dependent)
		want.MaxDeadlockSet = max(want.MaxDeadlockSet, inc.DeadlockSet)
		want.MaxResourceSet = max(want.MaxResourceSet, inc.ResourceSet)
		want.MaxKnotCycles = max(want.MaxKnotCycles, inc.KnotCycles)
	}
	if warmup == 0 || want.Deadlocks == 0 {
		t.Fatalf("%d warmup and %d measured deadlocks; the test needs both", warmup, want.Deadlocks)
	}
	t.Logf("%d warmup and %d measured deadlocks", warmup, want.Deadlocks)
	if got, w := deadlockAccount(res), deadlockAccount(&want); got != w {
		t.Errorf("Result's deadlock block %v; the measured incidents give %v", got, w)
	}
}
