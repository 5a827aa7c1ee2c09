package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/runner"
)

// refReps is how many untraced repetitions a traced run takes its reference
// wall time (and reference results) from.
const refReps = 3

// sampleTiny is how many points of a store or service workload the traced
// run steps by hand for the engine-layer metrics: its simulations are the
// same size, so a sample tells what all of them cost.
const sampleTiny = 100

// runTraced is the per-layer measurement of one workload: untraced reference
// repetitions, then one repetition of the workload's own path with spans
// around every call into a layer, then the probes that attribute what spans
// from outside cannot reach — all on the workload's own spec.
func runTraced(in *instance, traceOut string) (*report, error) {
	if err := in.setup(); err != nil {
		return nil, err
	}
	v := &verifier{in: in}
	var walls []float64 // seconds
	var ref []specv1.PointResult
	for i := 0; i <= refReps; i++ { // the first is the warm repetition
		wall, results, err := in.rep()
		if err != nil {
			return nil, err
		}
		if err := v.check(fmt.Sprintf("reference repetition %d", i), results); err != nil {
			return v.fail(err)
		}
		if i > 0 {
			walls = append(walls, wall.Seconds())
		}
		ref = results
	}
	untraced := median(walls)

	fmt.Printf("== %s  seed %d  traced  %d points ==\n", in.w.name, in.seed, len(in.configs))
	ms := newMetricSet(perLayer)
	tr := newTracer()
	var traced time.Duration
	var err error

	// The engine layers: every point of an engine workload (this is its
	// traced repetition), a sample of a store or service workload's.
	sample := in.configs
	if in.w.kind != engine && len(sample) > sampleTiny {
		sample = sample[:sampleTiny]
	}
	var et, profiled engineTimes
	if in.w.kind == engine {
		traced, err = tracedEngineRep(in, tr, &et, ref)
	} else {
		for i, c := range sample {
			if _, err = stepPoint(c, i, nil, &et); err != nil {
				break
			}
		}
	}
	if err != nil {
		return v.fail(err)
	}
	for i, c := range sample {
		c.ProfileEngine = true
		if _, err := stepPoint(c, i, nil, &profiled); err != nil {
			return nil, err
		}
	}
	setEngineMetrics(ms, &et, &profiled)
	if err := probeShards(ms, in.configs); err != nil {
		return nil, err
	}

	if in.w.kind == warm {
		if traced, err = tracedWarmRep(in, tr, v); err != nil {
			return v.fail(err)
		}
	}
	if err := probeStore(ms, in, ref); err != nil {
		return nil, err
	}

	// The service layer: the spec through a fresh-store fleet (a fleet
	// workload's traced repetition), then the probes on that same fleet.
	dir, err := in.freshDir("fleet")
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(dir)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	out := filepath.Join(dir, "results.jsonl")
	var span func(string) func() // spans only for a fleet workload's own repetition
	endRoot := func() {}
	if in.w.kind == fleet {
		endRoot = tr.begin("other", "repetition", -1)
		span = func(name string) func() {
			layer, _, _ := strings.Cut(name, ".")
			return tr.begin(layer, name, -1)
		}
	}
	start := time.Now()
	ck, err := fl.sweep(in.spec, out, span)
	fleetWall := time.Since(start)
	endRoot()
	if err != nil {
		return nil, err
	}
	results, err := readResults(out)
	if err != nil {
		return nil, err
	}
	if err := v.check("fleet sweep", results); err != nil {
		return v.fail(err)
	}
	if in.w.kind == fleet {
		traced = fleetWall
	}
	if err := probeService(ms, in, fl, ck, fleetWall); err != nil {
		return v.fail(err)
	}

	if err := probeRouting(ms); err != nil {
		return nil, err
	}
	if err := probeDetector(ms); err != nil {
		return nil, err
	}

	ms.set("trace_overhead_frac", traced.Seconds()/untraced-1)
	fmt.Printf("  untraced wall %.4f s (median of %d)\n", untraced, refReps)
	if err := tr.account(ms); err != nil {
		return v.fail(err)
	}
	metrics, err := ms.report()
	if err != nil {
		return nil, err
	}
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(tr.spans), traceOut)
	return &report{Correct: true, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}, nil
}

// tracedEngineRep is localRun without a store, with the harness in place of
// core.RunSpec → runner.Map → sim.RunContext so that the layers under
// sim.Runner can be timed. Each point's deadlocks, deliveries and
// recoveries must equal the untraced reference's.
func tracedEngineRep(in *instance, tr *tracer, et *engineTimes, ref []specv1.PointResult) (time.Duration, error) {
	dir, err := in.freshDir("traced")
	if err != nil {
		return 0, err
	}
	start := time.Now()
	endRoot := tr.begin("other", "repetition", -1)
	end := tr.begin("specv1", "specv1.DecodeSpec", -1)
	f, err := os.Open(in.specPath)
	if err != nil {
		return 0, err
	}
	spec, err := specv1.DecodeSpec(f)
	f.Close()
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("specv1", "specv1.Spec.Configs", -1)
	configs, err := spec.Configs()
	end()
	if err != nil {
		return 0, err
	}
	points := make([]core.Point, len(configs))
	for i, c := range configs {
		res, err := stepPoint(c, i, tr, et)
		if err != nil {
			return 0, err
		}
		points[i] = core.Point{Index: i, Load: c.Load, Result: res, Status: core.StatusDone}
	}
	end = tr.begin("core", "core.PointResults", -1)
	results, err := core.PointResults(configs, points)
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("specv1", "specv1.WriteResults", -1)
	err = writeResults(filepath.Join(dir, "results.jsonl"), results)
	end()
	endRoot()
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	for i, pr := range ref {
		want, err := specv1.DecodeResult(pr.Result)
		if err != nil {
			return 0, err
		}
		got := points[i].Result
		if got.Deadlocks != want.Deadlocks || got.Delivered != want.Delivered || got.Recovered != want.Recovered {
			return 0, fmt.Errorf("traced point %d (key %s): deadlocks/delivered/recovered %d/%d/%d, untraced %d/%d/%d",
				i, pr.Key, got.Deadlocks, got.Delivered, got.Recovered, want.Deadlocks, want.Delivered, want.Recovered)
		}
	}
	return wall, nil
}

// tracedWarmRep is localRun against the filled store with a span around
// each call. core.RunSpec is two calls (Spec.Configs, then runner.Map via
// core.RunAll); they are made separately here so that the store's share is
// not hidden inside the adapter's.
func tracedWarmRep(in *instance, tr *tracer, v *verifier) (time.Duration, error) {
	dir, err := in.freshDir("traced")
	if err != nil {
		return 0, err
	}
	out := filepath.Join(dir, "results.jsonl")
	start := time.Now()
	endRoot := tr.begin("other", "repetition", -1)
	end := tr.begin("runner", "runner.Open", -1)
	cache, err := runner.Open(in.storeDir)
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("specv1", "specv1.DecodeSpec", -1)
	f, err := os.Open(in.specPath)
	if err != nil {
		return 0, err
	}
	spec, err := specv1.DecodeSpec(f)
	f.Close()
	end()
	if err != nil {
		return 0, err
	}
	endRun := tr.begin("core", "core.RunSpec", -1)
	end = tr.begin("specv1", "specv1.Spec.Configs", -1)
	configs, err := spec.Configs()
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("runner", "runner.Map", -1)
	pts := runner.Map(context.Background(), configs, runner.Options{Parallelism: 1, Cache: cache})
	end()
	endRun()
	end = tr.begin("specv1", "specv1.Spec.Configs", -1)
	configs, err = spec.Configs()
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("core", "core.PointResults", -1)
	results, err := core.PointResults(configs, pts)
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("runner", "runner.Cache.GetRaw", -1)
	for i := range results {
		if raw, ok := cache.GetRaw(results[i].Key); ok {
			results[i].Result = raw
		}
	}
	end()
	end = tr.begin("specv1", "specv1.WriteResults", -1)
	err = writeResults(out, results)
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin("runner", "runner.Cache.Close", -1)
	err = cache.Close()
	end()
	endRoot()
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	results, err = readResults(out)
	if err != nil {
		return 0, err
	}
	if err := in.servedFromStore(results); err != nil {
		return 0, err
	}
	return wall, v.check("traced repetition", results)
}
