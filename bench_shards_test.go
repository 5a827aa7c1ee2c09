// Shard-scaling benchmarks for the parallel cycle engine: the saturated
// 16-ary 2-cube of BenchmarkSimCycleObsOff stepped at 1, 2, 4 and 8 shards.
// The engine guarantees bit-identical results for every shard count, so
// these measure pure execution strategy: Shards1 must stay within noise of
// the sequential baseline (the 1-shard path IS the sequential engine — no
// mailboxes, no barriers), and higher counts buy wall-clock on multi-core
// runners.
//
//	go test -run='^$' -bench=SimCycleShards -benchmem .
//
// BenchmarkSimCycleSubsat is the live-network counterpoint. The shard points
// step a standing deadlock with the detector parked — every header blocked,
// nothing recovering — which is the best case for change-gated allocation;
// Subsat runs the same network below saturation with detection and recovery
// on, where ~10% of headers are blocked and the rest are granted and move;
// BenchmarkSimCycleBignet does the same on the 32-ary 2-cube.
//
// FLEXSIM_BENCH_SHARDS_OUT=BENCH_shards.json go test -run TestEmitShardBench .
// re-measures every point with testing.Benchmark and writes the
// machine-readable trajectory file (ns/cycle, allocs/op, speedup-vs-1-shard);
// FLEXSIM_BENCH_COMPARE=1 go test -run TestBenchCompare . holds Shards1
// against it.
package flexsim_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"flexsim/internal/sim"
)

// shardBenchRunner builds the saturated 16-ary 2-cube runner used by every
// shard point: observability off, detector parked, 2000 warm cycles so the
// steady state is allocation-free.
func shardBenchRunner(tb testing.TB, shards int) *sim.Runner {
	tb.Helper()
	cfg := sim.Default()
	cfg.Load = 1.0
	cfg.DetectEvery = 1 << 30
	cfg.WarmupCycles = 0
	cfg.MetricsEvery = 0
	cfg.Shards = shards
	r, err := sim.NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // reach saturation occupancy
		r.StepCycle()
	}
	return r
}

func benchSimCycleShards(b *testing.B, shards int) {
	r := shardBenchRunner(b, shards)
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StepCycle()
	}
}

func BenchmarkSimCycleShards1(b *testing.B) { benchSimCycleShards(b, 1) }
func BenchmarkSimCycleShards2(b *testing.B) { benchSimCycleShards(b, 2) }
func BenchmarkSimCycleShards4(b *testing.B) { benchSimCycleShards(b, 4) }
func BenchmarkSimCycleShards8(b *testing.B) { benchSimCycleShards(b, 8) }

// subsatNetwork describes BenchmarkSimCycleSubsat's configuration. Two VCs,
// not one: TFAR with a single VC is past saturation at load 0.3 on this
// network (99.6% of active messages blocked), with two it is well below.
const subsatNetwork = "16-ary 2-cube, tfar, 2 VCs, load 0.3, detect every 50, recovery on"

func BenchmarkSimCycleSubsat(b *testing.B) { benchSimCycleLive(b, 16, 0.3) }

// bignetNetwork describes BenchmarkSimCycleBignet's configuration: the
// bench's `bignet-run` point. Flits move on 1024 routers, so the cost of
// flit movement over a large working set shows — the case the wedged shard
// points cannot see.
const bignetNetwork = "32-ary 2-cube, tfar, 2 VCs, load 0.4, detect every 50, recovery on"

func BenchmarkSimCycleBignet(b *testing.B) { benchSimCycleLive(b, 32, 0.4) }

// benchSimCycleLive steps a k-ary 2-cube under TFAR with two VCs, detection
// and recovery on, after 2000 cycles to reach steady occupancy.
func benchSimCycleLive(b *testing.B, k int, load float64) {
	cfg := sim.Default()
	cfg.K = k
	cfg.VCs = 2
	cfg.Load = load
	cfg.WarmupCycles = 0
	cfg.MetricsEvery = 0
	cfg.Shards = 1
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2000; i++ {
		r.StepCycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StepCycle()
	}
}

// shardBenchPoint is one row of BENCH_shards.json.
type shardBenchPoint struct {
	Shards      int     `json:"shards"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SpeedupVs1  float64 `json:"speedup_vs_1_shard"`
}

// shardBenchFile is the BENCH_shards.json envelope: enough machine context
// to judge the numbers (a 1-core runner cannot show multi-shard speedup).
type shardBenchFile struct {
	Benchmark  string            `json:"benchmark"`
	Network    string            `json:"network"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Points     []shardBenchPoint `json:"points"`
	// Subsat and Bignet are BenchmarkSimCycleSubsat's and
	// BenchmarkSimCycleBignet's rows (1 shard, so no speedup).
	SubsatNetwork string          `json:"subsat_network"`
	Subsat        shardBenchPoint `json:"subsat"`
	BignetNetwork string          `json:"bignet_network"`
	Bignet        shardBenchPoint `json:"bignet"`
}

// TestEmitShardBench re-measures the four shard points and the two live
// points and writes the machine-readable perf trajectory to
// $FLEXSIM_BENCH_SHARDS_OUT; without the variable it is a no-op, so
// `go test ./...` never pays the measurement.
func TestEmitShardBench(t *testing.T) {
	out := os.Getenv("FLEXSIM_BENCH_SHARDS_OUT")
	if out == "" {
		t.Skip("set FLEXSIM_BENCH_SHARDS_OUT to write BENCH_shards.json")
	}
	file := shardBenchFile{
		Benchmark:  "BenchmarkSimCycleShards",
		Network:    "16-ary 2-cube, tfar, load 1.0, detector off",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		s := shards
		res := testing.Benchmark(func(b *testing.B) { benchSimCycleShards(b, s) })
		ns := float64(res.NsPerOp())
		if shards == 1 {
			base = ns
		}
		file.Points = append(file.Points, shardBenchPoint{
			Shards:      shards,
			NsPerCycle:  ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			SpeedupVs1:  base / ns,
		})
	}
	live := func(bench func(*testing.B)) shardBenchPoint {
		res := testing.Benchmark(bench)
		return shardBenchPoint{
			Shards:      1,
			NsPerCycle:  float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			SpeedupVs1:  1,
		}
	}
	file.SubsatNetwork, file.Subsat = subsatNetwork, live(BenchmarkSimCycleSubsat)
	file.BignetNetwork, file.Bignet = bignetNetwork, live(BenchmarkSimCycleBignet)
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestBenchCompare is the CI bench-compare gate: with FLEXSIM_BENCH_COMPARE=1
// it re-measures the obs-off 1-shard cycle and compares it against the
// baseline file ($FLEXSIM_BENCH_BASELINE, default BENCH_shards.json).
// Allocations are deterministic, so any allocs/op growth fails on every
// machine; the >5% ns/cycle gate applies only when the baseline came from
// the same machine class (equal GOARCH and CPU count) — wall-clock numbers
// from a different machine are not comparable and are only logged.
func TestBenchCompare(t *testing.T) {
	if os.Getenv("FLEXSIM_BENCH_COMPARE") == "" {
		t.Skip("set FLEXSIM_BENCH_COMPARE=1 to run the bench-compare gate")
	}
	path := os.Getenv("FLEXSIM_BENCH_BASELINE")
	if path == "" {
		path = "BENCH_shards.json"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("bench baseline: %v", err)
	}
	var base shardBenchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("bench baseline %s: %v", path, err)
	}
	var ref *shardBenchPoint
	for i := range base.Points {
		if base.Points[i].Shards == 1 {
			ref = &base.Points[i]
		}
	}
	if ref == nil {
		t.Fatalf("baseline %s has no 1-shard point", path)
	}

	res := testing.Benchmark(func(b *testing.B) { benchSimCycleShards(b, 1) })
	ns := float64(res.NsPerOp())
	t.Logf("obs-off SimCycleShards1: %.0f ns/cycle, %d allocs/op (baseline %.0f ns, %d allocs from %s/%d-cpu)",
		ns, res.AllocsPerOp(), ref.NsPerCycle, ref.AllocsPerOp, base.GOARCH, base.NumCPU)

	if res.AllocsPerOp() > ref.AllocsPerOp {
		t.Errorf("allocs/op grew: %d > baseline %d — the disabled hot path is no longer allocation-identical",
			res.AllocsPerOp(), ref.AllocsPerOp)
	}
	sameMachine := base.GOARCH == runtime.GOARCH && base.NumCPU == runtime.NumCPU()
	if !sameMachine {
		t.Logf("baseline machine differs (%s/%d-cpu vs %s/%d-cpu); ns gate skipped, allocs gate enforced",
			base.GOARCH, base.NumCPU, runtime.GOARCH, runtime.NumCPU())
		return
	}
	if ns > 1.05*ref.NsPerCycle {
		t.Errorf("obs-off SimCycleShards1 regressed >5%%: %.0f ns/cycle vs baseline %.0f", ns, ref.NsPerCycle)
	}
}
