// Coordinator dispatch benchmark: the per-point cost of the sweep service's
// queue -> worker -> settle path, trace contexts, scheduler metrics and
// events included (there is no tracing-off path). TestBenchCompareDispatch
// holds its allocations to the committed BENCH_dispatch.json baseline.
//
//	go test -run='^$' -bench=Dispatch -benchmem .
package flexsim_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/sweepsvc"
)

// BenchmarkDispatch pushes b.N distinct points through one coordinator with
// a single in-process worker and a stub executor, so the measured cost is
// scheduling, settlement and store persistence — not simulation.
func BenchmarkDispatch(b *testing.B) {
	cache, err := runner.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	s, err := sweepsvc.New(sweepsvc.Config{
		Cache:        cache,
		LocalWorkers: 1,
		Run: func(_ context.Context, c sim.Config) (*stats.Result, error) {
			return &stats.Result{Label: c.Label, Load: c.Load, Seed: c.Seed}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	base := sim.Quick()
	base.Label = "dispatch"
	loads := make([]float64, b.N)
	for i := range loads {
		loads[i] = float64(i+1) * 1e-9 // distinct loads: no dedupe, b.N executions
	}
	spec := specv1.LoadSpec("dispatch", base, loads)

	b.ReportAllocs()
	b.ResetTimer()
	st, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	ch, cancel, err := s.Subscribe(st.ID)
	if err != nil {
		b.Fatal(err)
	}
	defer cancel()
	for ev := range ch {
		if ev.Type == "done" {
			if ev.Stat.Done != b.N {
				b.Fatalf("dispatch sweep: %+v", ev.Stat)
			}
			return
		}
	}
	final, err := s.Status(st.ID)
	if err != nil || final.State != specv1.SweepDone {
		b.Fatalf("dispatch sweep did not settle: %+v (%v)", final, err)
	}
}

// dispatchBenchFile is the BENCH_dispatch.json envelope: the committed
// baseline the bench-compare gate holds the coordinator to.
type dispatchBenchFile struct {
	Benchmark string  `json:"benchmark"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	NsPerOp   float64 `json:"ns_per_op"`
	Allocs    int64   `json:"allocs_per_op"`
}

// TestEmitDispatchBench measures the dispatch path and writes
// BENCH_dispatch.json to $FLEXSIM_BENCH_DISPATCH_OUT; without the variable
// it is a no-op.
func TestEmitDispatchBench(t *testing.T) {
	out := os.Getenv("FLEXSIM_BENCH_DISPATCH_OUT")
	if out == "" {
		t.Skip("set FLEXSIM_BENCH_DISPATCH_OUT to write BENCH_dispatch.json")
	}
	res := testing.Benchmark(BenchmarkDispatch)
	file := dispatchBenchFile{
		Benchmark: "BenchmarkDispatch",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		NsPerOp:   float64(res.NsPerOp()),
		Allocs:    res.AllocsPerOp(),
	}
	b, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestBenchCompareDispatch is the dispatch half of the CI bench-compare
// gate (FLEXSIM_BENCH_COMPARE=1): the dispatch path may not allocate more
// than the committed BENCH_dispatch.json baseline.
// Dispatch wall-clock is dominated by store I/O and too noisy to gate; it
// is logged for the record on every machine.
func TestBenchCompareDispatch(t *testing.T) {
	if os.Getenv("FLEXSIM_BENCH_COMPARE") == "" {
		t.Skip("set FLEXSIM_BENCH_COMPARE=1 to run the bench-compare gate")
	}
	path := os.Getenv("FLEXSIM_BENCH_DISPATCH_BASELINE")
	if path == "" {
		path = "BENCH_dispatch.json"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dispatch bench baseline: %v", err)
	}
	var base dispatchBenchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("dispatch bench baseline %s: %v", path, err)
	}
	res := testing.Benchmark(BenchmarkDispatch)
	t.Logf("Dispatch: %d ns/op, %d allocs/op (baseline %.0f ns, %d allocs from %s/%d-cpu)",
		res.NsPerOp(), res.AllocsPerOp(), base.NsPerOp, base.Allocs, base.GOARCH, base.NumCPU)
	if res.AllocsPerOp() > base.Allocs {
		t.Errorf("dispatch allocs/op grew: %d > baseline %d", res.AllocsPerOp(), base.Allocs)
	}
}
