package cwg_test

import (
	"fmt"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/sim"
)

// BenchmarkKnotTarjanVsReach quantifies design decision 1: knot detection by
// Tarjan + condensation vs the naive per-vertex reachability definition, on
// a CWG captured from a saturated 16-ary 2-cube (TFAR, 1 VC).
func BenchmarkKnotTarjanVsReach(b *testing.B) {
	cfg := sim.Default()
	cfg.Routing, cfg.VCs, cfg.Load, cfg.WarmupCycles = "tfar", 1, 1.0, 0
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		r.StepCycle()
	}
	msgs := r.Detector.Snapshot()
	g := cwg.Build(msgs)
	b.Run(fmt.Sprintf("tarjan/V=%d", g.NumVertices()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A graph keeps its components once computed, so the arm that
			// measures computing them pays for a Build as well.
			cwg.Build(msgs).FindKnots()
		}
	})
	b.Run(fmt.Sprintf("naive/V=%d", g.NumVertices()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.NaiveKnots()
		}
	})
}
