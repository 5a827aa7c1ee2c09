package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"flexsim/internal/api/specv1"
)

func tiny() Config {
	c := QuickConfig()
	c.K = 4
	c.WarmupCycles = 100
	c.MeasureCycles = 400
	return c
}

func TestLoads(t *testing.T) {
	got := Loads(0.1, 0.5, 0.1)
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if len(got) != len(want) {
		t.Fatalf("Loads = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("Loads[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Loads(0.5, 0.5, 0.1); len(got) != 1 {
		t.Errorf("degenerate Loads = %v", got)
	}
}

func TestRunAndMustRun(t *testing.T) {
	res, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if MustRun(tiny()).Delivered == 0 {
		t.Fatal("MustRun delivered nothing")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRun on invalid config did not panic")
		}
	}()
	bad := tiny()
	bad.Routing = "nope"
	MustRun(bad)
}

func TestLoadSweepOrderAndDeterminism(t *testing.T) {
	loads := []float64{0.2, 0.6, 1.0}
	a := LoadSweep(context.Background(), tiny(), loads, WithParallelism(2))
	b := LoadSweep(context.Background(), tiny(), loads, WithParallelism(3)) // different parallelism, same results
	if err := FirstError(a); err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("%d points", len(a))
	}
	for i := range a {
		if a[i].Load != loads[i] {
			t.Errorf("point %d load = %v, want %v (order must be preserved)", i, a[i].Load, loads[i])
		}
		if a[i].Result.Delivered != b[i].Result.Delivered ||
			a[i].Result.Deadlocks != b[i].Result.Deadlocks {
			t.Errorf("point %d differs across parallelism: %+v vs %+v", i, a[i].Result, b[i].Result)
		}
	}
}

func TestLoadSweepSeedsDecorrelated(t *testing.T) {
	pts := LoadSweep(context.Background(), tiny(), []float64{0.5, 0.5}, WithParallelism(1))
	if pts[0].Result.Seed == pts[1].Result.Seed {
		t.Error("sweep points share a seed")
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	good := tiny()
	bad := tiny()
	bad.Routing = "nope"
	pts := RunAll(context.Background(), []Config{good, bad})
	if pts[0].Err != nil {
		t.Errorf("good config errored: %v", pts[0].Err)
	}
	if pts[1].Err == nil {
		t.Error("bad config produced no error")
	}
	if FirstError(pts) == nil {
		t.Error("FirstError missed the failure")
	}
}

func TestSaturationLoad(t *testing.T) {
	cfg := tiny()
	cfg.Routing = "dor"
	pts := LoadSweep(context.Background(), cfg, []float64{0.1, 1.5})
	if err := FirstError(pts); err != nil {
		t.Fatal(err)
	}
	sat := SaturationLoad(pts)
	if sat != 1.5 {
		t.Errorf("SaturationLoad = %v, want 1.5 (0.1 unsaturated)", sat)
	}
	if s := SaturationLoad(pts[:1]); !math.IsInf(s, 1) {
		t.Errorf("all-unsaturated SaturationLoad = %v, want +Inf", s)
	}
}

func TestPointSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := specv1.PointSeed(1, i)
		if seen[s] {
			t.Fatalf("PointSeed collision at %d", i)
		}
		seen[s] = true
	}
}

// TestRunSpecMatchesLoadSweep pins the adapter contract: executing a
// versioned spec and running the equivalent local load sweep enumerate the
// same configurations (same seeds, same cache keys) and produce identical
// measurements.
func TestRunSpecMatchesLoadSweep(t *testing.T) {
	base := tiny()
	loads := []float64{0.2, 0.8}
	spec := specv1.LoadSpec("t", base, loads)
	viaSpec, err := RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	local := LoadSweep(context.Background(), base, loads)
	if len(viaSpec) != len(local) {
		t.Fatalf("RunSpec %d points, LoadSweep %d", len(viaSpec), len(local))
	}
	for i := range local {
		if viaSpec[i].Result.Seed != local[i].Result.Seed {
			t.Errorf("point %d: spec seed %d != local seed %d", i, viaSpec[i].Result.Seed, local[i].Result.Seed)
		}
		if viaSpec[i].Result.Delivered != local[i].Result.Delivered {
			t.Errorf("point %d: spec delivered %d != local %d", i, viaSpec[i].Result.Delivered, local[i].Result.Delivered)
		}
	}

	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	prs, err := PointResults(cfgs, viaSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range prs {
		if pr.Key != CacheKey(cfgs[i]) {
			t.Errorf("point %d: wire key %s != cache key", i, pr.Key)
		}
		if pr.Status != specv1.StatusDone || len(pr.Result) == 0 {
			t.Errorf("point %d: status %q, %d result bytes", i, pr.Status, len(pr.Result))
		}
	}
}

// specRun is what `charsweep -spec` does with a store: open it, run the
// spec, convert the points to their wire form.
func specRun(t *testing.T, dir string, spec *specv1.Spec) (*Cache, []Point, []specv1.PointResult) {
	t.Helper()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	pts, err := RunSpec(context.Background(), spec, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	prs, err := PointResults(cfgs, pts)
	if err != nil {
		t.Fatal(err)
	}
	return cache, pts, prs
}

// TestSpecStoreRoundTrip: a spec run against an empty store then against
// the filled one looks each point up exactly once (the counters `charsweep
// -spec` prints used to double), and the warm run's wire results are the
// store's bytes — the ones the cold run persisted and reported.
func TestSpecStoreRoundTrip(t *testing.T) {
	spec := specv1.LoadSpec("t", tiny(), []float64{0.2, 0.5, 0.8})
	n := int64(len(spec.Loads))
	dir := t.TempDir()

	cache, _, cold := specRun(t, dir, spec)
	if cache.Hits() != 0 || cache.Misses() != n {
		t.Errorf("cold run: %d hits, %d misses; want 0, %d", cache.Hits(), cache.Misses(), n)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	cache, pts, warm := specRun(t, dir, spec)
	if cache.Hits() != n || cache.Misses() != 0 {
		t.Errorf("warm run: %d hits, %d misses; want %d, 0", cache.Hits(), cache.Misses(), n)
	}
	for i, pr := range warm {
		if pr.Status != specv1.StatusCached || cold[i].Status != specv1.StatusDone {
			t.Errorf("point %d: cold %s, warm %s; want done, cached", i, cold[i].Status, pr.Status)
		}
		if pr.Key != cold[i].Key || !bytes.Equal(pr.Result, cold[i].Result) {
			t.Errorf("point %d: warm result differs from the cold run's", i)
		}
		if len(pr.Result) == 0 || &pr.Result[0] != &pts[i].Raw[0] {
			t.Errorf("point %d: wire result is not the store's own bytes", i)
		}
		if pts[i].Result == nil || pts[i].Result.Delivered == 0 {
			t.Errorf("point %d: cached point lost its decoded Result", i)
		}
	}

	// Converting served points is a copy of what they carry: the output
	// slice is the only allocation, however many points there are.
	cfgs, _ := spec.Configs()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := PointResults(cfgs, pts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("PointResults on store-served points: %.0f allocations, want 1", allocs)
	}
}

// TestPointResultsHandBuiltPoints: points assembled without runner.Map (the
// benchmark's traced harness builds them so) carry no Key or Raw and are
// keyed and encoded here.
func TestPointResultsHandBuiltPoints(t *testing.T) {
	cfgs := []Config{tiny(), tiny()}
	cfgs[1].Load = 0.7
	pts := make([]Point, len(cfgs))
	for i, c := range cfgs {
		pts[i] = Point{Index: i, Load: c.Load, Result: MustRun(c), Status: StatusDone}
	}
	prs, err := PointResults(cfgs, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range prs {
		want, err := specv1.EncodeResult(pts[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Key != CacheKey(cfgs[i]) || !bytes.Equal(pr.Result, want) {
			t.Errorf("point %d: key %s, result %s", i, pr.Key, pr.Result)
		}
	}
}
