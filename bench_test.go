// Benchmarks regenerating every table and figure of the paper's evaluation
// (scaled to benchmark-friendly sizes: 8-ary 2-cube, short windows; run
// cmd/charsweep without -quick for full-fidelity sweeps), plus
// micro-benchmarks and the ablations called out in DESIGN.md.
//
//	go test -bench=. -benchmem
package flexsim_test

import (
	"context"
	"fmt"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/experiments"
	"flexsim/internal/network"
	"flexsim/internal/obs"
	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/topology"
)

// benchOpts shrinks experiment sweeps so one bench iteration stays ~O(1s).
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Loads: []float64{0.4, 1.0}, Seed: 7}
}

func benchExperiment(b *testing.B, id string) {
	f, err := experiments.ByName(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := f(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// --- One benchmark per paper table/figure -----------------------------------

// BenchmarkFig5: bidirectionality study — normalized deadlocks (5a) and
// deadlock set sizes (5b) vs load, DOR, 1 VC, uni vs bi torus; one sweep
// fills both panels.
func BenchmarkFig5(b *testing.B) {
	fig5, err := experiments.ByName("fig5")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := fig5(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) < 2 || len(tables[0].Rows) == 0 || len(tables[1].Rows) == 0 {
			b.Fatal("empty panel")
		}
	}
}

// BenchmarkFig6: adaptivity study (6a deadlocks and cycles, 6b set sizes).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7: virtual channel study (7a 1-4 VCs, 7b cycle census).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8: buffer depth study, wormhole through VCT (8a vs load, 8b vs
// messages in the network).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkNodeDegree: Sec. 3.5 (2-D vs higher-degree torus).
func BenchmarkNodeDegree(b *testing.B) { benchExperiment(b, "degree") }

// BenchmarkTraffic: Sec. 3.6 (non-uniform traffic patterns).
func BenchmarkTraffic(b *testing.B) { benchExperiment(b, "traffic") }

// BenchmarkIrregular: the future-work irregular-network study (up*/down*
// vs unrestricted minimal adaptive on random switch graphs).
func BenchmarkIrregular(b *testing.B) { benchExperiment(b, "irregular") }

// --- Single-run benchmarks at the paper's default scale ---------------------

// BenchmarkSimCycle measures raw simulation speed: cycles/op on a saturated
// 16-ary 2-cube with TFAR (the paper's default network), detector off.
func BenchmarkSimCycle(b *testing.B) {
	cfg := sim.Default()
	cfg.Load = 1.0
	cfg.DetectEvery = 1 << 30
	cfg.WarmupCycles = 0
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // reach saturation occupancy
		r.StepCycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StepCycle()
	}
}

// BenchmarkSimCycleObsOff is BenchmarkSimCycle with the observability
// fields explicitly zero — the nil-guarded hooks must not change the hot
// path. Compare its ns/op against BenchmarkSimCycle (budget: <= 2% apart)
// and require 0 allocs/op.
func BenchmarkSimCycleObsOff(b *testing.B) {
	cfg := sim.Default()
	cfg.Load = 1.0
	cfg.DetectEvery = 1 << 30
	cfg.WarmupCycles = 0
	cfg.MetricsEvery = 0
	cfg.MetricsSink = nil
	cfg.MetricsLive = nil
	cfg.Incidents = nil
	cfg.Tracer = nil
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // reach saturation occupancy
		r.StepCycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StepCycle()
	}
}

// BenchmarkSimCycleObsOn measures the same loop with interval metrics and a
// live view enabled at the default cadence — the cost of observability when
// it is on.
func BenchmarkSimCycleObsOn(b *testing.B) {
	cfg := sim.Default()
	cfg.Load = 1.0
	cfg.DetectEvery = 1 << 30
	cfg.WarmupCycles = 0
	cfg.MetricsEvery = obs.DefaultEvery
	cfg.MetricsLive = &obs.Live{}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		r.StepCycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StepCycle()
	}
}

// BenchmarkDetection measures one full true-deadlock-detection pass
// (snapshot + CWG build + Tarjan + classification) on a saturated 16-ary
// 2-cube.
func BenchmarkDetection(b *testing.B) {
	r := saturatedRunner(b, "tfar", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Detector.DetectNow()
	}
}

// BenchmarkDetectionWithCensus adds the Johnson cycle census to each pass.
func BenchmarkDetectionWithCensus(b *testing.B) {
	cfg := sim.Default()
	cfg.Load = 1.0
	cfg.WarmupCycles = 0
	cfg.CycleCensus = true
	cfg.MaxCycles = 100000
	cfg.MaxWork = 2000000
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		r.StepCycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Detector.DetectNow()
	}
}

func saturatedRunner(b *testing.B, alg string, vcs int) *sim.Runner {
	b.Helper()
	cfg := sim.Default()
	cfg.Routing = alg
	cfg.VCs = vcs
	cfg.Load = 1.0
	cfg.WarmupCycles = 0
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		r.StepCycle()
	}
	return r
}

// --- Ablations from DESIGN.md -----------------------------------------------

func saturatedCWG(b *testing.B) *cwg.Graph {
	b.Helper()
	r := saturatedRunner(b, "tfar", 1)
	return cwg.Build(r.Detector.Snapshot())
}

// BenchmarkJohnsonCaps quantifies design decision 5: bounded cycle
// enumeration cost at different caps on a dense blocked-network CWG.
func BenchmarkJohnsonCaps(b *testing.B) {
	g := saturatedCWG(b)
	for _, maxCycles := range []int{100, 10000, 1000000} {
		b.Run(fmt.Sprintf("maxCycles=%d", maxCycles), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.CountCycles(cwg.Options{MaxCycles: maxCycles, MaxWork: 1 << 22})
			}
		})
	}
}

// BenchmarkCWGBuild measures snapshot-to-graph construction alone.
func BenchmarkCWGBuild(b *testing.B) {
	r := saturatedRunner(b, "tfar", 1)
	snap := r.Detector.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := cwg.Build(snap)
		if g.NumVertices() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkDetectNow measures a full detection pass (snapshot +
// message-graph build + Tarjan + classification) with the change gate and
// the knot-freedom proof defeated (Invalidate), so every iteration rebuilds
// and re-analyzes.
// Steady-state allocations should be zero once the detector's arenas have
// warmed up.
func BenchmarkDetectNow(b *testing.B) {
	r := saturatedRunner(b, "dateline-dor", 2)
	r.Detector.Invalidate()
	r.Detector.DetectNow() // warm the arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Detector.Invalidate()
		r.Detector.DetectNow()
	}
}

// BenchmarkDetectNowGated measures the gated fast path: the network has not
// changed since the last deadlock-free pass, so DetectNow returns the cached
// analysis. This must report 0 allocs/op.
func BenchmarkDetectNowGated(b *testing.B) {
	r := saturatedRunner(b, "dateline-dor", 2)
	r.Detector.DetectNow() // prime the gate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Detector.DetectNow()
	}
	b.StopTimer()
	if r.Detector.Stats.GatedInvocations == 0 {
		b.Fatal("gate never engaged; fast path not exercised")
	}
}

// BenchmarkDetectNowProved measures a pass the knot-freedom proof answers:
// a deadlock-free routing at saturation, stepped one cycle (untimed) before
// each pass so the change gate never engages and every pass sees a new
// state. This must report 0 allocs/op.
func BenchmarkDetectNowProved(b *testing.B) {
	r := saturatedRunner(b, "dateline-dor", 2)
	d, err := detect.New(r.Net, detect.Config{Every: 50})
	if err != nil {
		b.Fatal(err)
	}
	d.DetectNow() // warm the proof's storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.StepCycle()
		b.StartTimer()
		d.DetectNow()
	}
	b.StopTimer()
	if s := d.Stats; s.GatedInvocations != 0 || s.DetectBuildTime.Sum() != 0 {
		b.Fatalf("%d of %d passes gated, %d ns spent building: not every pass was proved",
			s.GatedInvocations, s.Invocations, s.DetectBuildTime.Sum())
	}
}

// BenchmarkDetectNowTimeouts measures a pass with the timeout comparison
// on, which no pass may skip: the knot-freedom proof, then every blocked
// message against three thresholds. This must report 0 allocs/op.
func BenchmarkDetectNowTimeouts(b *testing.B) {
	r := saturatedRunner(b, "dateline-dor", 2)
	d, err := detect.New(r.Net, detect.Config{Every: 50, TimeoutThresholds: []int64{50, 200, 1000}})
	if err != nil {
		b.Fatal(err)
	}
	d.DetectNow() // warm the proof's storage and the timeout counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectNow()
	}
	b.StopTimer()
	if d.Timeout[0].Flagged == 0 {
		b.Fatal("no blocked message reached the lowest threshold")
	}
}

// BenchmarkVCTvsWormhole quantifies design decision 4: virtual cut-through
// as an emergent buffer-depth setting rather than a special-cased switch
// mode (per-run cost of depth 2 vs depth 32).
func BenchmarkVCTvsWormhole(b *testing.B) {
	for _, depth := range []int{2, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := sim.Quick()
			cfg.Routing = "tfar"
			cfg.BufferDepth = depth
			cfg.Load = 1.0
			cfg.WarmupCycles = 200
			cfg.MeasureCycles = 1000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouting measures candidate generation for each algorithm on the
// topology class it is defined for.
func BenchmarkRouting(b *testing.B) {
	torus := topology.MustNew(16, 2, true)
	mesh := topology.MustNewMesh(16, 2)
	irr := topology.MustNewIrregular(256, 128, 1)
	for _, name := range routing.Names() {
		alg, err := routing.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		var topo topology.Network = torus
		switch name {
		case "negative-first", "west-first":
			topo = mesh
		case "updown":
			topo = irr
		}
		b.Run(name, func(b *testing.B) {
			req := routing.Request{Topo: topo, Node: 0, Dst: 137, VCs: 4, CurDim: 0, PrevCh: topology.None}
			var buf []routing.Candidate
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = alg.Candidates(&req, buf[:0])
			}
			if len(buf) == 0 {
				b.Fatal("no candidates")
			}
		})
	}
}

// BenchmarkNetworkStepScaling measures per-cycle cost across network sizes.
func BenchmarkNetworkStepScaling(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			topo := topology.MustNew(k, 2, true)
			n, err := network.New(network.Params{
				Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.TFAR{}, RecoveryDrainRate: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			prob := 0.5 * topo.CapacityPerNode() / 32
			inject := func() {
				for s := 0; s < topo.Nodes(); s++ {
					if r.Bernoulli(prob) {
						d := r.Intn(topo.Nodes())
						if d != s {
							n.Inject(s, d, 32)
						}
					}
				}
			}
			for i := 0; i < 500; i++ {
				inject()
				n.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inject()
				n.Step()
			}
		})
	}
}

// BenchmarkRecoveryPolicies compares victim-selection policies end to end.
func BenchmarkRecoveryPolicies(b *testing.B) {
	for _, pol := range []string{"oldest", "most", "fewest", "random"} {
		b.Run(pol, func(b *testing.B) {
			cfg := sim.Quick()
			cfg.Bidirectional = false
			cfg.Routing = "dor"
			cfg.Load = 1.0
			cfg.VictimPolicy = pol
			cfg.WarmupCycles = 200
			cfg.MeasureCycles = 1000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Deadlocks == 0 {
					b.Fatal("no deadlocks to recover from")
				}
			}
		})
	}
}

// BenchmarkLoadSweepParallel measures the sweep harness itself.
func BenchmarkLoadSweepParallel(b *testing.B) {
	cfg := sim.Quick()
	cfg.K = 4
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 300
	cfgs := specv1.ExpandLoads(cfg, specv1.Loads(0.2, 1.0, 0.2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := runner.Map(context.Background(), cfgs, runner.Options{})
		if err := runner.FirstError(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperScenarios measures analysis of the hand-built Figure 1-4
// graphs (detection latency floor).
func BenchmarkPaperScenarios(b *testing.B) {
	scenarios := map[string][]cwg.Msg{
		"fig1": cwg.PaperFig1(), "fig2": cwg.PaperFig2(),
		"fig3": cwg.PaperFig3(), "fig4": cwg.PaperFig4(),
	}
	for name, msgs := range scenarios {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := cwg.Build(msgs)
				g.Analyze(cwg.Options{CountKnotCycles: true})
				g.CountCycles(cwg.Options{})
			}
		})
	}
}

// BenchmarkDetectorTickOverhead measures the steady-state cost the paper's
// 50-cycle detection period adds to simulation.
func BenchmarkDetectorTickOverhead(b *testing.B) {
	r := saturatedRunner(b, "dor", 1)
	d, err := detect.New(r.Net, detect.Config{Every: 50, Recover: true, CountKnotCycles: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Net.Step()
		d.Tick()
	}
}
