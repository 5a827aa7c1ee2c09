package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsim/internal/obs"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// TestPanicIsolation: a deliberately panicking run (test-injected) fails
// only its own Point, with the panic value and goroutine stack captured;
// every other point completes normally.
func TestPanicIsolation(t *testing.T) {
	cfgs := sweepConfigs(4)
	pts := Map(context.Background(), cfgs, Options{
		Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
			if c.Load == cfgs[2].Load {
				panic("injected failure")
			}
			return fastRun(ctx, c)
		},
	})
	for i, p := range pts {
		if i == 2 {
			if p.Status != Failed {
				t.Fatalf("panicking point: status %s, want failed", p.Status)
			}
			if p.Result != nil {
				t.Errorf("panicking point carries a result")
			}
			var pe *PanicError
			if !errors.As(p.Err, &pe) {
				t.Fatalf("panicking point err = %T (%v), want *PanicError", p.Err, p.Err)
			}
			if pe.Value != "injected failure" {
				t.Errorf("panic value = %v, want injected failure", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "runner") {
				t.Errorf("panic stack not captured: %q", pe.Stack)
			}
			continue
		}
		if p.Status != Done || p.Result == nil {
			t.Errorf("point %d: status %s, result %v — panic leaked past its point",
				i, p.Status, p.Result)
		}
	}
}

// TestErrorIsolation: a run returning an error fails its own Point and the
// sweep still yields every other result.
func TestErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	cfgs := sweepConfigs(3)
	pts := Map(context.Background(), cfgs, Options{
		Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
			if c.Load == cfgs[0].Load {
				return nil, boom
			}
			return fastRun(ctx, c)
		},
	})
	if pts[0].Status != Failed || !errors.Is(pts[0].Err, boom) {
		t.Errorf("point 0: %+v, want failed with boom", pts[0])
	}
	for _, p := range pts[1:] {
		if p.Status != Done {
			t.Errorf("point %d: status %s, want done", p.Index, p.Status)
		}
	}
}

// countingSink counts sink flushes; runner must leave sinks flushed even for
// interrupted runs.
type countingSink struct{ flushes atomic.Int64 }

func (s *countingSink) Run(obs.RunMeta, *obs.Recorder) { s.flushes.Add(1) }

// TestMapCancellation is the satellite acceptance test: a sweep cancelled
// mid-flight stops in-flight runs within one detector period, marks
// unstarted points as cancelled — with nil Results, not zero-valued ones —
// and leaves sinks flushed.
func TestMapCancellation(t *testing.T) {
	sink := &countingSink{}
	var cfgs []sim.Config
	for i := 0; i < 8; i++ {
		c := sim.Default()
		c.K = 4
		c.WarmupCycles = 0
		c.MeasureCycles = 1 << 30 // would run ~forever without cancellation
		c.DetectEvery = 10
		c.Load = 0.3
		c.Seed = uint64(i + 1)
		c.MetricsEvery = 100
		c.MetricsSink = sink
		cfgs = append(cfgs, c)
	}
	// Cancel as soon as the first simulation is genuinely in flight: the
	// executor wrapper signals right before entering sim.RunContext, so
	// that run is caught mid-measurement and the queued remainder never
	// starts.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel()
	}()
	start := time.Now()
	pts := Map(ctx, cfgs, Options{
		Parallelism: 2,
		Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
			once.Do(func() { close(started) })
			return sim.RunContext(ctx, c)
		},
	})
	elapsed := time.Since(start)
	cancel()

	// Everything after the cancel must settle within a few detector
	// periods, not after 2^30 cycles. Generous bound: one period on this
	// 4x4 torus takes well under a millisecond.
	if elapsed > 30*time.Second {
		t.Fatalf("Map took %v after cancellation", elapsed)
	}

	var inFlight, unstarted int
	for i, p := range pts {
		switch {
		case p.Status == Cancelled && p.Result != nil:
			// In-flight when cancelled: partial results, flagged as such.
			if !p.Result.Interrupted {
				t.Errorf("point %d: partial result not marked Interrupted", i)
			}
			if p.Err == nil {
				t.Errorf("point %d: cancelled without an error", i)
			}
			inFlight++
		case p.Status == Cancelled:
			if p.Err == nil {
				t.Errorf("point %d: cancelled without an error", i)
			}
			unstarted++
		default:
			t.Fatalf("point %d: status %s", i, p.Status)
		}
	}
	if inFlight == 0 {
		t.Errorf("no in-flight run returned a partial result")
	}
	if unstarted == 0 {
		t.Errorf("no queued run was cancelled before starting (got %d in-flight)", inFlight)
	}
	// Every run that actually started must have flushed its sink — an
	// interrupted run still reports the cycles it measured.
	if got, want := sink.flushes.Load(), int64(inFlight); got != want {
		t.Errorf("sink flushed %d time(s), want %d (one per started run)", got, want)
	}
}

// TestMapPreCancelled: a context that is already cancelled yields all-
// cancelled points without executing anything.
func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	pts := Map(ctx, sweepConfigs(3), Options{
		Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
			ran.Add(1)
			return fastRun(ctx, c)
		},
	})
	if n := ran.Load(); n != 0 {
		t.Errorf("%d run(s) executed under a dead context", n)
	}
	for i, p := range pts {
		if p.Status != Cancelled || p.Result != nil || !errors.Is(p.Err, context.Canceled) {
			t.Errorf("point %d: %+v, want cancelled with nil result", i, p)
		}
	}
}

// TestSaturationLoad: a real DOR sweep saturates at its deep load and not at
// its light one; with no saturated point the answer is +Inf.
func TestSaturationLoad(t *testing.T) {
	var cfgs []sim.Config
	for _, load := range []float64{0.1, 1.5} {
		c := sim.Quick()
		c.K, c.WarmupCycles, c.MeasureCycles = 4, 100, 400
		c.Routing = "dor"
		c.Load = load
		cfgs = append(cfgs, c)
	}
	pts := Map(context.Background(), cfgs, Options{})
	if err := FirstError(pts); err != nil {
		t.Fatal(err)
	}
	if sat := SaturationLoad(pts); sat != 1.5 {
		t.Errorf("SaturationLoad = %v, want 1.5 (0.1 unsaturated)", sat)
	}
	if s := SaturationLoad(pts[:1]); !math.IsInf(s, 1) {
		t.Errorf("all-unsaturated SaturationLoad = %v, want +Inf", s)
	}
}

// TestMapOrderAndOnDone: points come back in input order regardless of
// completion order, and OnDone fires exactly once per point.
func TestMapOrderAndOnDone(t *testing.T) {
	cfgs := sweepConfigs(6)
	var mu sync.Mutex
	seen := make(map[int]int)
	pts := Map(context.Background(), cfgs, Options{
		Parallelism: 3,
		Run:         fastRun,
		OnDone: func(i int, p Point) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		},
	})
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("pts[%d].Index = %d", i, p.Index)
		}
		if p.Load != cfgs[i].Load {
			t.Errorf("pts[%d].Load = %v, want %v", i, p.Load, cfgs[i].Load)
		}
	}
	if len(seen) != len(cfgs) {
		t.Errorf("OnDone fired for %d point(s), want %d", len(seen), len(cfgs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("OnDone fired %d times for point %d", n, i)
		}
	}
}

// TestMapLookupStage pins the two stages of a Map with a cache: every hit
// settles (across goroutines, once there is more than one chunk) before the
// first run starts, a hit carries the store's bytes under its key, runs stay
// within Parallelism, and every miss — a configuration never stored, and one
// whose stored line is corrupt — runs and is persisted. One stored
// configuration is listed twice, in different chunks.
func TestMapLookupStage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // fan out even on one CPU
	all := sweepConfigs(4 * lookupChunk)
	var stored []sim.Config
	for i, c := range all {
		if i%3 != 0 {
			stored = append(stored, c)
		}
	}
	corrupt := all[0]
	cfgs := append(all, all[1])
	wantHits := int64(len(stored) + 1)
	for _, par := range []int{1, 3} {
		t.Run(fmt.Sprint("parallelism=", par), func(t *testing.T) {
			dir := t.TempDir()
			fill := openStore(t, dir)
			Map(context.Background(), stored, Options{Cache: fill, Run: fastRun})
			if err := fill.Close(); err != nil {
				t.Fatal(err)
			}
			disk := storeLines(t, dir)
			f, err := os.OpenFile(filepath.Join(dir, cacheFile), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = fmt.Fprintf(f, `{"key":%q,"load":0.1,"result":{"a":tru}}`+"\n", Key(corrupt))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}

			cache := openStore(t, dir)
			var hits, running, peak atomic.Int64
			var mu sync.Mutex
			fired := map[int]int{}
			pts := Map(context.Background(), cfgs, Options{
				Parallelism: par,
				Cache:       cache,
				OnDone: func(i int, p Point) {
					if p.Status == Cached {
						hits.Add(1)
					}
					mu.Lock()
					fired[i]++
					mu.Unlock()
				},
				Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
					n := running.Add(1)
					defer running.Add(-1)
					for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
					}
					if h := hits.Load(); h != wantHits {
						t.Errorf("load %.1f started with %d of %d hits settled", c.Load, h, wantHits)
					}
					time.Sleep(time.Millisecond) // let the runs overlap
					return fastRun(ctx, c)
				},
			})
			if p := peak.Load(); p > int64(par) {
				t.Errorf("%d runs at once, Parallelism %d", p, par)
			}
			if len(fired) != len(cfgs) {
				t.Errorf("OnDone fired for %d of %d points", len(fired), len(cfgs))
			}
			for i, n := range fired {
				if n != 1 {
					t.Errorf("OnDone fired %d times for point %d", n, i)
				}
			}
			if cache.Hits() != wantHits || cache.Misses() != int64(len(cfgs))-wantHits {
				t.Errorf("%d hits, %d misses; want %d, %d", cache.Hits(), cache.Misses(), wantHits, int64(len(cfgs))-wantHits)
			}
			if err := cache.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := openStore(t, dir)
			for i, p := range pts {
				want, isStored := disk[Key(cfgs[i])]
				switch {
				case p.Key != Key(cfgs[i]):
					t.Errorf("point %d: key %s, want %s", i, p.Key, Key(cfgs[i]))
				case isStored && (p.Status != Cached || !bytes.Equal(p.Raw, want)):
					t.Errorf("point %d: %s with %s; want cached with the store's %s", i, p.Status, p.Raw, want)
				case isStored:
				case p.Status != Done:
					t.Errorf("point %d: %s, want done", i, p.Status)
				default:
					if raw, ok := reopened.GetRaw(p.Key); !ok || !bytes.Equal(raw, p.Raw) {
						t.Errorf("point %d: ran, but the store holds %s, not %s", i, raw, p.Raw)
					}
				}
			}
		})
	}
}
