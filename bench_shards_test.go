// Cycle-engine benchmarks: BenchmarkSimCycleShards1 steps the saturated
// 16-ary 2-cube of BenchmarkSimCycleObsOff — a standing deadlock with the
// detector parked, every header blocked, nothing recovering — which is the
// best case for change-gated allocation. (The name is kept from when a
// parallel engine ran the same network at 2, 4 and 8 shards; DESIGN §10.)
//
//	go test -run='^$' -bench='SimCycle(Shards1|Subsat|Bignet|OneVC|Contended|Census)' -benchmem .
//
// BenchmarkSimCycleSubsat is the live-network counterpoint: the same network
// below saturation with detection and recovery on, where ~10% of headers
// are blocked and the rest are granted and move; BenchmarkSimCycleBignet
// does the same on the 32-ary 2-cube. Both have two VCs per channel, so a
// channel can have two requesters; BenchmarkSimCycleContended is DOR with two
// VCs at load 1.0, where they often do and a later requester undoes the
// first one's move. BenchmarkSimCycleOneVC is the paper's one-VC network
// below saturation, where a channel has one requester.
// BenchmarkSimCycleCensus is TFAR with two VCs at load 1.0 under the cycle
// census, which counts each pass's graph on its own goroutine.
//
// FLEXSIM_BENCH_SHARDS_OUT=BENCH_shards.json go test -run TestEmitShardBench .
// re-measures the six with testing.Benchmark and writes the
// machine-readable trajectory file (ns/cycle, allocs/op);
// FLEXSIM_BENCH_COMPARE=1 go test -run TestBenchCompare . holds Shards1
// against it, and OneVC, Contended, Census, BenchmarkDetectNow and
// BenchmarkDetectionWithCensus to 0 allocs/op.
package flexsim_test

import (
	"cmp"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"

	"flexsim/internal/sim"
)

// BenchmarkSimCycleShards1 steps the saturated 16-ary 2-cube: observability
// off, detector parked, 2000 warm cycles so the steady state is
// allocation-free.
func BenchmarkSimCycleShards1(b *testing.B) {
	cfg := sim.Default()
	cfg.Load = 1.0
	cfg.DetectEvery = 1 << 30
	cfg.WarmupCycles = 0
	cfg.MetricsEvery = 0
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

// subsatNetwork describes BenchmarkSimCycleSubsat's configuration. Two VCs,
// not one: TFAR with a single VC is past saturation at load 0.3 on this
// network (99.6% of active messages blocked), with two it is well below.
const subsatNetwork = "16-ary 2-cube, tfar, 2 VCs, load 0.3, detect every 50, recovery on"

func BenchmarkSimCycleSubsat(b *testing.B) { benchSimCycleLive(b, 16, "tfar", 2, 0.3) }

// bignetNetwork describes BenchmarkSimCycleBignet's configuration: the
// bench's `bignet-run` point. Flits move on 1024 routers, so the cost of
// flit movement over a large working set shows — the case the wedged
// Shards1 point cannot see.
const bignetNetwork = "32-ary 2-cube, tfar, 2 VCs, load 0.4, detect every 50, recovery on"

func BenchmarkSimCycleBignet(b *testing.B) { benchSimCycleLive(b, 32, "tfar", 2, 0.4) }

// oneVCNetwork describes BenchmarkSimCycleOneVC's configuration: the paper's
// one-VC DOR below saturation, where a channel's one VC has one requester
// and the plan walk commits every transfer it finds.
const oneVCNetwork = "16-ary 2-cube, dor, 1 VC, load 0.1, detect every 50, recovery on"

func BenchmarkSimCycleOneVC(b *testing.B) { benchSimCycleLive(b, 16, "dor", 1, 0.1) }

// contendedNetwork describes BenchmarkSimCycleContended's configuration:
// two VCs past saturation, where two worms often ask for one physical
// channel in a cycle and the later-walked one wins about half the time.
const contendedNetwork = "16-ary 2-cube, dor, 2 VCs, load 1.0, detect every 50, recovery on"

func BenchmarkSimCycleContended(b *testing.B) { benchSimCycleLive(b, 16, "dor", 2, 1.0) }

// censusNetwork describes BenchmarkSimCycleCensus's configuration: the
// paper's regime, a saturated network under the fig6/fig7 cycle census, in
// which most passes are answered by the knot-freedom proof while the census
// counts their graphs beside the cycle.
const censusNetwork = "16-ary 2-cube, tfar, 2 VCs, load 1.0, detect every 50, recovery on, census capped at 100000 cycles / 2000000 work"

func BenchmarkSimCycleCensus(b *testing.B) {
	cfg := liveConfig(16, "tfar", 2, 1.0)
	cfg.CycleCensus, cfg.MaxCycles, cfg.MaxWork = true, 100000, 2000000
	benchSimCycle(b, cfg)
}

// benchSimCycleLive steps a k-ary 2-cube under the given routing and VC
// count, detection and recovery on.
func benchSimCycleLive(b *testing.B, k int, routing string, vcs int, load float64) {
	benchSimCycle(b, liveConfig(k, routing, vcs, load))
}

// liveConfig is the paper's point on a k-ary 2-cube with the given routing,
// VC count and load, without warm-up or metrics.
func liveConfig(k int, routing string, vcs int, load float64) sim.Config {
	cfg := sim.Default()
	cfg.K = k
	cfg.Routing = routing
	cfg.VCs = vcs
	cfg.Load = load
	cfg.WarmupCycles = 0
	cfg.MetricsEvery = 0
	return cfg
}

// benchSimCycle steps cfg's runner, after 2000 cycles to reach steady
// occupancy.
func benchSimCycle(b *testing.B, cfg sim.Config) {
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
	b.StopTimer()
	r.Detector.Wait()
}

// shardBenchPoint is one row of BENCH_shards.json; Shards is always 1.
type shardBenchPoint struct {
	Shards      int     `json:"shards"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// shardBenchFile is the BENCH_shards.json envelope: enough machine context
// to judge the numbers.
type shardBenchFile struct {
	Benchmark  string            `json:"benchmark"`
	Network    string            `json:"network"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Points     []shardBenchPoint `json:"points"`
	// Subsat, Bignet, OneVC, Contended and Census are
	// BenchmarkSimCycleSubsat's, BenchmarkSimCycleBignet's,
	// BenchmarkSimCycleOneVC's, BenchmarkSimCycleContended's and
	// BenchmarkSimCycleCensus's rows.
	SubsatNetwork    string          `json:"subsat_network"`
	Subsat           shardBenchPoint `json:"subsat"`
	BignetNetwork    string          `json:"bignet_network"`
	Bignet           shardBenchPoint `json:"bignet"`
	OneVCNetwork     string          `json:"one_vc_network"`
	OneVC            shardBenchPoint `json:"one_vc"`
	ContendedNetwork string          `json:"contended_network"`
	Contended        shardBenchPoint `json:"contended"`
	CensusNetwork    string          `json:"census_network"`
	Census           shardBenchPoint `json:"census"`
}

// TestEmitShardBench re-measures the wedged point and the five live points
// and writes the machine-readable perf trajectory to
// $FLEXSIM_BENCH_SHARDS_OUT; without the variable it is a no-op, so
// `go test ./...` never pays the measurement.
func TestEmitShardBench(t *testing.T) {
	out := os.Getenv("FLEXSIM_BENCH_SHARDS_OUT")
	if out == "" {
		t.Skip("set FLEXSIM_BENCH_SHARDS_OUT to write BENCH_shards.json")
	}
	file := shardBenchFile{
		Benchmark:  "BenchmarkSimCycleShards1",
		Network:    "16-ary 2-cube, tfar, load 1.0, detector off",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	point := func(bench func(*testing.B)) shardBenchPoint {
		res := testing.Benchmark(bench)
		return shardBenchPoint{
			Shards:      1,
			NsPerCycle:  float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}
	file.Points = []shardBenchPoint{point(BenchmarkSimCycleShards1)}
	file.SubsatNetwork, file.Subsat = subsatNetwork, point(BenchmarkSimCycleSubsat)
	file.BignetNetwork, file.Bignet = bignetNetwork, point(BenchmarkSimCycleBignet)
	file.OneVCNetwork, file.OneVC = oneVCNetwork, point(BenchmarkSimCycleOneVC)
	file.ContendedNetwork, file.Contended = contendedNetwork, point(BenchmarkSimCycleContended)
	file.CensusNetwork, file.Census = censusNetwork, point(BenchmarkSimCycleCensus)
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
// baseline file ($FLEXSIM_BENCH_BASELINE, default BENCH_shards.json), and
// holds the one-VC, the contended and the census live cycles and the graph
// path's detection passes, with and without the census, to 0 allocs/op. Allocations
// are deterministic, so any allocs/op growth fails on every machine. The
// ns/cycle figure is the median of benchCompareRuns measurements, since one
// run on a shared host spreads by more than the gate; the >5% gate applies
// only when the baseline came from the same machine class (equal GOARCH and
// CPU count) — wall-clock numbers from a different machine are not
// comparable and are only logged.
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

	runs := make([]testing.BenchmarkResult, benchCompareRuns)
	for i := range runs {
		runs[i] = testing.Benchmark(BenchmarkSimCycleShards1)
	}
	slices.SortFunc(runs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(a.NsPerOp(), b.NsPerOp()) })
	res := runs[len(runs)/2]
	ns := float64(res.NsPerOp())
	t.Logf("obs-off SimCycleShards1: median %.0f ns/cycle of %d runs [%d … %d], %d allocs/op (baseline %.0f ns, %d allocs from %s/%d-cpu)",
		ns, len(runs), runs[0].NsPerOp(), runs[len(runs)-1].NsPerOp(), res.AllocsPerOp(), ref.NsPerCycle, ref.AllocsPerOp,
		base.GOARCH, base.NumCPU)

	if res.AllocsPerOp() > ref.AllocsPerOp {
		t.Errorf("allocs/op grew: %d > baseline %d — the disabled hot path is no longer allocation-identical",
			res.AllocsPerOp(), ref.AllocsPerOp)
	}
	for _, live := range []struct {
		name  string
		bench func(*testing.B)
	}{
		{"SimCycleOneVC", BenchmarkSimCycleOneVC},
		{"SimCycleContended", BenchmarkSimCycleContended},
		{"SimCycleCensus", BenchmarkSimCycleCensus},
		{"DetectNow", BenchmarkDetectNow},
		{"DetectionWithCensus", BenchmarkDetectionWithCensus},
	} {
		if r := testing.Benchmark(live.bench); r.AllocsPerOp() != 0 {
			t.Errorf("%s: %d allocs/op, want 0", live.name, r.AllocsPerOp())
		}
	}
	sameMachine := base.GOARCH == runtime.GOARCH && base.NumCPU == runtime.NumCPU()
	if !sameMachine {
		t.Logf("baseline machine differs (%s/%d-cpu vs %s/%d-cpu); ns gate skipped, allocs gate enforced",
			base.GOARCH, base.NumCPU, runtime.GOARCH, runtime.NumCPU())
		return
	}
	if ns > 1.05*ref.NsPerCycle {
		t.Errorf("obs-off SimCycleShards1 regressed >5%%: median %.0f ns/cycle vs baseline %.0f", ns, ref.NsPerCycle)
	}
}

// benchCompareRuns is how many times TestBenchCompare measures Shards1.
const benchCompareRuns = 5
