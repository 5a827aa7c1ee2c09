package sim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// censusConfig is tiny()'s network at saturation with the cycle census on.
func censusConfig() Config {
	c := tiny()
	c.Routing, c.Load, c.CycleCensus = "tfar", 1.0, true
	return c
}

// TestCensusInFlightAtWarmupIsDropped: the warm-up's last pass falls on the
// measurement boundary, so its census is in flight when StartMeasurement
// clears the record; it belongs to the warm-up and must not be counted.
func TestCensusInFlightAtWarmupIsDropped(t *testing.T) {
	c := censusConfig()
	c.WarmupCycles, c.MeasureCycles = 100, 100
	r, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.WarmupCycles; i++ {
		r.StepCycle()
	}
	r.StartMeasurement()
	r.Detector.Wait()
	if n := r.res.CensusSamples; n != 0 {
		t.Fatalf("%d census samples right after StartMeasurement, want 0", n)
	}
	for i := 0; i < c.MeasureCycles; i++ {
		r.StepCycle()
	}
	if res := r.Finish(); res.CensusSamples != 2 || res.Invocations != 2 {
		t.Errorf("%d census samples over %d passes, want 2 and 2", res.CensusSamples, res.Invocations)
	}
}

// TestCensusCancelledRunCountsItsPasses: a run cancelled mid-measurement
// counts one census sample per pass it ran, its last one included, which
// is still in flight when the loop stops.
func TestCensusCancelledRunCountsItsPasses(t *testing.T) {
	c := censusConfig()
	c.WarmupCycles, c.MeasureCycles = 0, 1<<30
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	res, err := RunContext(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run not interrupted")
	}
	if passes := res.Cycles / int64(c.DetectEvery); res.CensusSamples != passes || res.Invocations != passes {
		t.Errorf("%d census samples and %d passes in %d cycles, want %d of each",
			res.CensusSamples, res.Invocations, res.Cycles, passes)
	}
}

// TestCensusLeavesNoGoroutine: neither a finished run nor a Runner abandoned
// with a census in flight leaves a goroutine behind.
func TestCensusLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := Run(censusConfig()); err != nil {
		t.Fatal(err)
	}
	settled("after Finish")
	func() {
		r, err := NewRunner(censusConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*r.Cfg.DetectEvery; i++ { // ends on a pass
			r.StepCycle()
		}
	}() // abandoned with that pass's census in flight
	settled("after an abandoned Runner")
}
