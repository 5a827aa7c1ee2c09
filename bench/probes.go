package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/cwg"
	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/topology"
)

// probeOps is how many calls a per-call probe averages over at least; small
// specs are looped over until they have made that many.
const probeOps = 2000

// perOp times f over enough passes of n operations each to make probeOps
// calls and returns the mean microseconds per operation.
func perOp(n int, f func() error) (float64, error) {
	passes := (probeOps + n - 1) / n
	start := time.Now()
	for p := 0; p < passes; p++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(passes*n), nil
}

// probeRouting times candidate generation on a fixed set of 4096 requests
// on the 16-ary 2-cube, the relation network.Step consults for every
// header-waiting message every cycle.
func probeRouting(ms *metricSet) error {
	topo, err := topology.New(16, 2, true)
	if err != nil {
		return err
	}
	r := rng.New(1)
	reqs := make([]routing.Request, 4096)
	for i := range reqs {
		node := r.Intn(topo.Nodes())
		dst := (node + 1 + r.Intn(topo.Nodes()-1)) % topo.Nodes()
		reqs[i] = routing.Request{Topo: topo, Node: node, Dst: dst, VCs: 2,
			CurDim: r.Intn(3) - 1, PrevCh: topology.None}
	}
	for _, name := range []string{"dor", "tfar"} {
		alg, err := routing.ByName(name)
		if err != nil {
			return err
		}
		var buf []routing.Candidate
		us, err := perOp(len(reqs), func() error {
			for i := range reqs {
				buf = alg.Candidates(&reqs[i], buf[:0])
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(buf) == 0 {
			return fmt.Errorf("routing %s: no candidates", name)
		}
		ms.set("routing.candidates_ns."+name, us*1e3)
	}
	return nil
}

// probeDetector times a full detection pass and the CWG build alone on a
// frozen state: TFAR1 at load 1.0 stepped 3000 cycles with recovery off, so
// knots stand and every pass sees the same wait-for graph.
func probeDetector(ms *metricSet) error {
	cfg := paperPoint("tfar", 1, 1.0, 0, 0)
	cfg.Recover = false
	cfg.DetectEvery = 1 << 30
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	for i := 0; i < 3000; i++ {
		r.StepCycle()
	}
	if a := r.Detector.DetectNow(); len(a.Deadlocks) == 0 { // also warms the arenas
		return fmt.Errorf("frozen TFAR1 state holds no deadlock")
	}
	us, err := perOp(1, func() error {
		r.Detector.Invalidate()
		r.Detector.DetectNow()
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("detect.full_pass_us", us)
	snap := r.Detector.Snapshot()
	bld := cwg.NewBuilder(r.Net.TotalVCs())
	us, err = perOp(1, func() error {
		if bld.Build(snap).NumVertices() == 0 {
			return fmt.Errorf("empty CWG")
		}
		return nil
	})
	ms.set("cwg.build_us", us)
	return err
}

// probeShards runs the spec's heaviest point at Shards 1 and 2, three times
// each, and once more at 2 with the engine's profiling on for its barrier
// stall (worker time parked at the barrier ÷ worker time, EngineStats' idle
// fraction — its slowest-minus-median StallNs is 0 by construction at two
// shards) and exact cross-shard mailbox count. On two shared vCPUs two shards lose;
// the numbers are informational until there is a many-core class.
func probeShards(ms *metricSet, configs []sim.Config) error {
	cfg := configs[0]
	weight := func(c sim.Config) int { return c.K * c.K * (c.WarmupCycles + c.MeasureCycles) }
	for _, c := range configs {
		if weight(c) > weight(cfg) {
			cfg = c
		}
	}
	var walls [2][]float64
	for i := 0; i < 3; i++ {
		for s := range walls {
			c := cfg
			c.Shards = s + 1
			start := time.Now()
			if _, err := sim.Run(c); err != nil {
				return err
			}
			walls[s] = append(walls[s], time.Since(start).Seconds())
		}
	}
	speedup := median(walls[0]) / median(walls[1])
	ms.set("network.shard2_speedup", speedup)
	fmt.Printf("  shard probe: 1 shard %v s, 2 shards %v s\n", walls[0], walls[1])

	cfg.Shards = 2
	cfg.ProfileEngine = true
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	r.Run()
	es := r.Net.EngineStatsAttached()
	ms.set("network.stall_frac", ratio(float64(es.TotalIdleNs()), float64(int64(es.Shards)*es.TotalWallNs())))
	ms.set("network.xshard_transfers", float64(es.CrossShardTransfers()))
	return nil
}

// probeStore measures the store and codec layers on the workload's own
// configurations and results: put them into a fresh store, reopen it, read
// them back, run a warm runner.Map over it, and time each codec.
func probeStore(ms *metricSet, in *instance, ref []specv1.PointResult) error {
	n := len(in.configs)
	decoded := make([]*stats.Result, n)
	points := make([]core.Point, n)
	var resultBytes int
	for i, pr := range ref {
		res, err := specv1.DecodeResult(pr.Result)
		if err != nil {
			return err
		}
		decoded[i] = res
		points[i] = core.Point{Index: i, Load: pr.Load, Result: res, Status: core.StatusDone}
		resultBytes += len(pr.Result)
	}
	ms.set("specv1.result_bytes", float64(resultBytes)/float64(n))

	specBytes, err := os.ReadFile(in.specPath)
	if err != nil {
		return err
	}
	us, err := perOp(n, func() error {
		_, err := specv1.DecodeSpec(bytes.NewReader(specBytes))
		return err
	})
	if err != nil {
		return err
	}
	ms.set("specv1.decode_spec_us_per_point", us)
	if us, err = perOp(n, func() error {
		for _, res := range decoded {
			if _, err := specv1.EncodeResult(res); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ms.set("specv1.encode_result_us", us)
	if us, err = perOp(n, func() error {
		for _, pr := range ref {
			if _, err := specv1.DecodeResult(pr.Result); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ms.set("specv1.decode_result_us", us)
	var sink bytes.Buffer
	if us, err = perOp(n, func() error {
		sink.Reset()
		return specv1.WriteResults(&sink, ref)
	}); err != nil {
		return err
	}
	ms.set("specv1.write_results_us_per_point", us)
	if us, err = perOp(n, func() error {
		_, err := core.PointResults(in.configs, points)
		return err
	}); err != nil {
		return err
	}
	ms.set("core.point_results_us_per_point", us)

	us, _ = perOp(n, func() error {
		for _, c := range in.configs {
			runner.Key(c)
		}
		return nil
	})
	ms.set("runner.key_us", us)
	dir, err := in.freshDir("store-probe")
	if err != nil {
		return err
	}
	cache, err := runner.Open(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	for i, c := range in.configs {
		cache.Put(c, decoded[i])
	}
	ms.set("runner.put_us", float64(time.Since(start).Nanoseconds())/1e3/float64(n))
	if err := cache.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return err
	}
	ms.set("runner.store_bytes_per_point", float64(fi.Size())/float64(n))
	start = time.Now()
	if cache, err = runner.Open(dir); err != nil {
		return err
	}
	defer cache.Close()
	ms.set("runner.open_us_per_entry", float64(time.Since(start).Nanoseconds())/1e3/float64(cache.Len()))
	if us, err = perOp(n, func() error {
		for i, c := range in.configs {
			if _, ok := cache.Get(c); !ok {
				return fmt.Errorf("point %d missing from the store it was put in", i)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ms.set("runner.get_us", us)
	hits, misses := cache.Hits(), cache.Misses()
	if us, err = perOp(n, func() error {
		runner.Map(context.Background(), in.configs, runner.Options{Parallelism: 1, Cache: cache})
		return nil
	}); err != nil {
		return err
	}
	ms.set("runner.map_overhead_us_per_point", us)
	hits, misses = cache.Hits()-hits, cache.Misses()-misses
	ms.set("runner.hit_frac", float64(hits)/float64(hits+misses))
	return nil
}

// probeService sets the service-layer metrics from one sweep of the spec
// through a fresh-store fleet (ck, which took fleetWall), then — on the same
// fleet — resubmits the identical spec, which must dedupe entirely in
// Submit, and compares against a local runner.Map at Parallelism 2.
func probeService(ms *metricSet, in *instance, fl *fleetEnv, ck *fleetClocks, fleetWall time.Duration) error {
	msOf := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	n := len(in.configs)
	ms.set("sweepsvc.submit_ms", msOf(ck.submit))
	ms.set("sweepsvc.first_result_ms", msOf(ck.firstResult))
	ms.set("sweepsvc.results_fetch_ms", msOf(ck.fetch))
	settle := make([]float64, len(ck.settle))
	for i, d := range ck.settle {
		settle[i] = msOf(d)
	}
	var p50, p90 float64
	if len(settle) > 0 {
		p50 = median(settle)
		p90 = quantile(settle, 0.9)
	}
	fmt.Printf("  fleet: %d of %d point events seen on the stream\n", len(settle), n)
	ms.set("sweepsvc.point_ms_p50", p50)
	ms.set("sweepsvc.point_ms_p90", p90)
	if ck.status == nil {
		return fmt.Errorf("fleet: the done event carried no status")
	}
	ms.set("sweepsvc.retries", float64(ck.status.Retries))

	lo, hi := fl.workers[0].Executions(), fl.workers[1].Executions()
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo+hi != int64(n) {
		return fmt.Errorf("fleet: %d executions for %d points", lo+hi, n)
	}
	ms.set("sweepsvc.worker_imbalance", float64(hi)/float64(max(lo, 1)))
	fi, err := os.Stat(fl.journal)
	if err != nil {
		return err
	}
	ms.set("sweepsvc.journal_bytes_per_point", float64(fi.Size())/float64(n))

	start := time.Now()
	st, err := fl.client.Submit(context.Background(), in.spec)
	if err != nil {
		return err
	}
	ms.set("sweepsvc.resubmit_us_per_point", float64(time.Since(start).Nanoseconds())/1e3/float64(n))
	if st.Cached != n {
		return fmt.Errorf("fleet: resubmission deduped %d of %d points", st.Cached, n)
	}

	start = time.Now()
	pts := runner.Map(context.Background(), in.configs, runner.Options{Parallelism: 2})
	local := time.Since(start)
	if err := core.FirstError(pts); err != nil {
		return err
	}
	ms.set("sweepsvc.overhead_frac", 1-local.Seconds()/fleetWall.Seconds())
	return nil
}
