package main

import (
	"fmt"
	"runtime"
	"time"

	"flexsim/internal/network"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// engineTimes is what stepping points by hand attributes to the layers
// under sim.Runner, summed over the points stepped.
type engineTimes struct {
	points int
	cycles int64
	// Wall time of whole points and of their parts. generate includes the
	// inject callback's time; the step loop includes all four.
	wall, newRunner, loop, finish   time.Duration
	generate, inject, step, tick    time.Duration
	injected                        int64
	sumActive, sumBlocked           int64 // per-cycle occupancy, summed
	deadlocks, delivered, recovered int64
	passes, gated                   int64
	buildNs, analyzeNs              float64 // detector histogram sums
	fullPasses                      int64
	mallocs, allocBytes             uint64 // over the step loops
	phaseNs                         [network.EnginePhases]int64
}

// stepPoint runs one point the way sim.RunContext does for open-loop
// traffic — per cycle Proc.Generate→Net.Inject, Net.Step, Detector.Tick,
// with StartMeasurement at the warm-up boundary and Finish at the end — but
// from here, so that each call can be timed. The Runner's own occupancy and
// generation counters are bypassed (they live in StepCycle), so the result's
// Generated/Mean* fields stay zero; deadlocks, deliveries and recoveries come
// from the detector and the delivery hook and must equal an untraced run's.
func stepPoint(cfg sim.Config, idx int, tr *tracer, et *engineTimes) (*stats.Result, error) {
	if cfg.Workload != "" || cfg.FaultLinkMTTF > 0 || len(cfg.FaultEvents) > 0 {
		return nil, fmt.Errorf("point %d: the harness steps open-loop, fault-free points only", idx)
	}
	endPoint := func() {}
	if tr != nil {
		endPoint = tr.begin("sim", "sim.Runner", idx)
	}
	pointStart := time.Now()
	r, err := sim.NewRunner(cfg)
	if err != nil {
		endPoint()
		return nil, err
	}
	loopStart := time.Now()
	et.newRunner += loopStart.Sub(pointStart)

	var generate, injectT, step, tick time.Duration
	var injected int64
	inject := func(src, dst, length int) {
		t := time.Now()
		r.Net.Inject(src, dst, length)
		injectT += time.Since(t)
		injected++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	total := cfg.WarmupCycles + cfg.MeasureCycles
	for i := 0; i < total; i++ {
		if i == cfg.WarmupCycles {
			r.StartMeasurement()
		}
		t0 := time.Now()
		r.Proc.Generate(inject)
		t1 := time.Now()
		r.Net.Step()
		t2 := time.Now()
		r.Detector.Tick()
		t3 := time.Now()
		generate += t1.Sub(t0)
		step += t2.Sub(t1)
		tick += t3.Sub(t2)
		et.sumActive += int64(r.Net.ActiveCount())
		et.sumBlocked += int64(r.Net.BlockedCount())
	}
	runtime.ReadMemStats(&after)
	loopEnd := time.Now()
	if es := r.Net.EngineStatsAttached(); es != nil {
		for s := range es.PhaseNs {
			for ph, ns := range es.PhaseNs[s] {
				et.phaseNs[ph] += ns
			}
		}
	}
	res := r.Finish()
	end := time.Now()
	if tr != nil {
		cycles := int64(total)
		tr.add("traffic", "traffic.Process.Generate", idx, generate-injectT, cycles)
		tr.add("network", "network.Network.Inject", idx, injectT, injected)
		tr.add("network", "network.Network.Step", idx, step, cycles)
		tr.add("detect", "detect.Detector.Tick", idx, tick, cycles)
	}
	endPoint()

	et.points++
	et.cycles += int64(total)
	et.wall += end.Sub(pointStart)
	et.loop += loopEnd.Sub(loopStart)
	et.finish += end.Sub(loopEnd)
	et.generate += generate
	et.inject += injectT
	et.step += step
	et.tick += tick
	et.injected += injected
	et.deadlocks += res.Deadlocks
	et.delivered += res.Delivered
	et.recovered += res.Recovered
	et.passes += res.Invocations
	et.gated += res.GatedInvocations
	et.buildNs += res.DetectBuildTime.Mean() * float64(res.DetectBuildTime.Count())
	et.analyzeNs += res.DetectAnalyzeTime.Mean() * float64(res.DetectAnalyzeTime.Count())
	et.fullPasses += res.DetectBuildTime.Count()
	et.mallocs += after.Mallocs - before.Mallocs
	et.allocBytes += after.TotalAlloc - before.TotalAlloc
	return res, nil
}

// ratio is a/b, or 0 when the denominator is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setEngineMetrics turns the stepped points' times into per-layer metrics.
// profiled is the same points stepped again with the engine's own phase
// profiling on (sim.Config.ProfileEngine).
func setEngineMetrics(ms *metricSet, et, profiled *engineTimes) {
	cycles := float64(et.cycles)
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	stepPerCycle := ns(et.step) / cycles
	ms.set("network.step_ns_per_cycle", stepPerCycle)
	ms.set("network.step_share", ns(et.step)/ns(et.wall))
	ms.set("network.step_ns_per_active_msg", ratio(ns(et.step), float64(et.sumActive)))
	ms.set("network.blocked_frac", ratio(float64(et.sumBlocked), float64(et.sumActive)))
	ms.set("network.inject_ns_per_msg", ratio(ns(et.inject), float64(et.injected)))
	ms.set("traffic.generate_ns_per_cycle", ns(et.generate-et.inject)/cycles)
	ms.set("detect.tick_ns_per_cycle", ns(et.tick)/cycles)
	ms.set("detect.tick_share", ns(et.tick)/ns(et.wall))
	ms.set("detect.passes", float64(et.passes))
	ms.set("detect.gated_frac", ratio(float64(et.gated), float64(et.passes)))
	ms.set("detect.build_us_mean", ratio(et.buildNs, float64(et.fullPasses))/1e3)
	ms.set("detect.analyze_us_mean", ratio(et.analyzeNs, float64(et.fullPasses))/1e3)
	ms.set("detect.deadlocks", float64(et.deadlocks))
	ms.set("sim.delivered_msgs", float64(et.delivered))
	ms.set("sim.cycles", cycles)
	ms.set("sim.new_runner_us", ns(et.newRunner)/1e3/float64(et.points))
	ms.set("sim.self_ns_per_cycle", ns(et.loop-et.generate-et.step-et.tick)/cycles)
	ms.set("sim.finish_us", ns(et.finish)/1e3/float64(et.points))
	ms.set("sim.allocs_per_cycle", float64(et.mallocs)/cycles)
	ms.set("sim.alloc_bytes_per_cycle", float64(et.allocBytes)/cycles)

	var phases int64
	for _, p := range profiled.phaseNs {
		phases += p
	}
	for ph, name := range []string{"drain_inject", "alloc_plan", "arb_eject", "apply_release"} {
		ms.set("network.phase_frac."+name, ratio(float64(profiled.phaseNs[ph]), float64(phases)))
	}
	ms.set("network.profile_overhead_frac", ns(profiled.step)/float64(profiled.cycles)/stepPerCycle-1)
}
