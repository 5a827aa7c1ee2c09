package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/obs"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/trace"
)

// goldenCanonical pins the canonical encoding of sim.Default(). If this test
// fails because a semantic field was added or renamed, update the golden —
// and accept that every existing cache is invalidated. If it fails for any
// other reason, the cache key is unstable and resume is broken.
const goldenCanonical = `{"Bidirectional":true,"BufferDepth":2,"CheckInvariants":false,"ComputeDelay":0,"CycleCensus":false,"DetectEvery":50,"FaultEvents":null,"FaultLinkMTTF":0,"FaultRepair":0,"FaultSeed":0,"HotspotFrac":0,"IrregularLinks":0,"IrregularNodes":0,"K":16,"KeepEvents":false,"KnotCycles":true,"Label":"","Load":0.5,"MaxCycles":0,"MaxWork":0,"MeasureCycles":30000,"Mesh":false,"MsgLen":32,"MsgLenShort":0,"N":2,"Recover":true,"RecoveryDrainRate":1,"Routing":"tfar","Seed":1,"ShortFrac":0,"TimeoutThresholds":null,"Traffic":"uniform","VCs":1,"VictimPolicy":"oldest","WarmupCycles":10000,"Workload":"","WorkloadPhases":0}`

const goldenKey = "b9a74bd79fe4d74b82a3e79783a3ee8b80701c5a58515e842bd059e5e72f114b"

func TestCanonicalConfigGolden(t *testing.T) {
	got := string(CanonicalConfig(sim.Default()))
	if got != goldenCanonical {
		t.Errorf("canonical encoding drifted:\n got  %s\n want %s", got, goldenCanonical)
	}
	if key := Key(sim.Default()); key != goldenKey {
		t.Errorf("Key(Default()) = %s, want %s", key, goldenKey)
	}
}

// TestKeySensitivity: every semantic value change must change the key; the
// canonical map encoding makes the key independent of struct field order by
// construction (keys marshal sorted by name, not by position).
func TestKeySensitivity(t *testing.T) {
	base := sim.Default()
	mutations := map[string]func(*sim.Config){
		"Load":          func(c *sim.Config) { c.Load = 0.75 },
		"Seed":          func(c *sim.Config) { c.Seed = 42 },
		"VCs":           func(c *sim.Config) { c.VCs = 3 },
		"Routing":       func(c *sim.Config) { c.Routing = "dor" },
		"Label":         func(c *sim.Config) { c.Label = "ablation-a" },
		"K":             func(c *sim.Config) { c.K = 8 },
		"MeasureCycles": func(c *sim.Config) { c.MeasureCycles = 500 },
		"Recover":       func(c *sim.Config) { c.Recover = false },
		"TimeoutThresholds": func(c *sim.Config) {
			c.TimeoutThresholds = []int64{16, 32}
		},
		"FaultSeed":     func(c *sim.Config) { c.FaultSeed = 9 },
		"FaultLinkMTTF": func(c *sim.Config) { c.FaultLinkMTTF = 5000 },
		"FaultRepair":   func(c *sim.Config) { c.FaultRepair = 200 },
		"FaultEvents": func(c *sim.Config) {
			c.FaultEvents = []fault.Event{{Cycle: 100, Kind: fault.LinkDown, Ch: 3}}
		},
		"FaultEvents-alt": func(c *sim.Config) {
			c.FaultEvents = []fault.Event{{Cycle: 200, Kind: fault.LinkDown, Ch: 3}}
		},
	}
	seen := map[string]string{Key(base): "base"}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		k := Key(c)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s produced the same key as %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyIgnoresObservability: toggling instrumentation must not invalidate
// cached results, and that is decided by type, not by a list of names: every
// field of sim.Instrumentation — whatever is added to it — set to a non-zero
// value leaves the key at the golden.
func TestKeyIgnoresObservability(t *testing.T) {
	stubs := []any{&trace.Ring{}, obs.NewCSVSink(&bytes.Buffer{})}
	c := sim.Default()
	v := reflect.ValueOf(&c.Instrumentation).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(1 << 16)
		case reflect.String:
			f.SetString("artifact-*.json")
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Interface:
			for _, stub := range stubs {
				if reflect.TypeOf(stub).Implements(f.Type()) {
					f.Set(reflect.ValueOf(stub))
				}
			}
		}
		if f.IsZero() {
			t.Fatalf("no non-zero value for sim.Instrumentation.%s: teach this test its type", v.Type().Field(i).Name)
		}
	}
	if got := Key(c); got != goldenKey {
		t.Errorf("instrumentation changed the key: got %s, want golden %s", got, goldenKey)
	}
}

// TestKeyIgnoresShards: the shard count is execution strategy, not physics —
// the parallel engine guarantees bit-identical results for any value
// (FuzzShardEquivalence), so Shards must not leak into the content address.
// The golden key equality doubles as proof that adding the field did not
// invalidate caches written before it existed.
func TestKeyIgnoresShards(t *testing.T) {
	base := sim.Default()
	for _, s := range []int{0, 1, 2, 8} {
		c := base
		c.Shards = s
		if got := Key(c); got != goldenKey {
			t.Errorf("Shards=%d changed the key: got %s, want golden %s", s, got, goldenKey)
		}
	}
}

// TestResumeAcrossShards: a sweep finished at one shard count must be served
// entirely from cache when re-run at another (-resume under a different
// FLEXSIM_SHARDS).
func TestResumeAcrossShards(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(3)
	for i := range cfgs {
		cfgs[i].Shards = 1
	}

	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Map(context.Background(), cfgs, Options{Cache: cache, Run: fastRun})
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	cache, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for i := range cfgs {
		cfgs[i].Shards = 4
	}
	var reran int
	second := Map(context.Background(), cfgs, Options{
		Parallelism: 1,
		Cache:       cache,
		Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
			reran++
			return fastRun(ctx, c)
		},
	})
	if reran != 0 {
		t.Errorf("re-ran %d run(s) after changing Shards, want 0 (all cached)", reran)
	}
	for i, p := range second {
		if p.Status != Cached {
			t.Errorf("point %d: status %s, want cached", i, p.Status)
		}
		a, _ := json.Marshal(first[i].Result)
		b, _ := json.Marshal(p.Result)
		if !bytes.Equal(a, b) {
			t.Errorf("point %d: result drifted across shard counts", i)
		}
	}
}

// fastRun is a deterministic stand-in executor: it fabricates a Result from
// the config without simulating, so cache tests stay instant.
func fastRun(_ context.Context, c sim.Config) (*stats.Result, error) {
	return &stats.Result{
		Label:     c.Label,
		Load:      c.Load,
		Cycles:    int64(c.MeasureCycles),
		Delivered: int64(c.Load * 1000),
		Deadlocks: int64(c.VCs),
	}, nil
}

func sweepConfigs(n int) []sim.Config {
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		c := sim.Default()
		c.MeasureCycles = 100
		c.WarmupCycles = 0
		c.Load = 0.1 * float64(i+1)
		cfgs[i] = c
	}
	return cfgs
}

// TestResumeRoundTrip is the satellite acceptance test: run a sweep with a
// cache, truncate the persisted results to a prefix (plus a torn final
// line), reopen, and re-run. Surviving entries must come back Cached and
// byte-identical; the truncated remainder must recompute; skipped runs must
// be counted as hits.
func TestResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(4)

	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Map(context.Background(), cfgs, Options{Cache: cache, Run: fastRun})
	for _, p := range first {
		if p.Status != Done {
			t.Fatalf("point %d: status %s, want done", p.Index, p.Status)
		}
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep the first two lines intact and append a torn partial line, as if
	// the process died mid-write.
	path := filepath.Join(dir, cacheFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("expected >=4 persisted lines, got %d", len(lines))
	}
	kept := append([]byte{}, lines[0]...)
	kept = append(kept, lines[1]...)
	kept = append(kept, lines[2][:len(lines[2])/2]...) // torn line, no newline
	if err := os.WriteFile(path, kept, 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if cache.Len() != 2 {
		t.Fatalf("after truncation Len() = %d, want 2 (torn line dropped)", cache.Len())
	}

	var reran int
	countingRun := func(ctx context.Context, c sim.Config) (*stats.Result, error) {
		reran++
		return fastRun(ctx, c)
	}
	second := Map(context.Background(), cfgs, Options{
		Parallelism: 1, // make the rerun counter race-free
		Cache:       cache,
		Run:         countingRun,
	})
	if reran != 2 {
		t.Errorf("reran %d run(s), want 2", reran)
	}
	if got, want := cache.Hits(), int64(2); got != want {
		t.Errorf("Hits() = %d, want %d", got, want)
	}
	var cached, done int
	for i, p := range second {
		if p.Result == nil {
			t.Fatalf("point %d: nil result", i)
		}
		switch p.Status {
		case Cached:
			cached++
		case Done:
			done++
		default:
			t.Errorf("point %d: status %s", i, p.Status)
		}
		// Cached results must round-trip byte-identically.
		a, err := json.Marshal(first[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("point %d: result drifted across resume:\n first  %s\n second %s", i, a, b)
		}
	}
	if cached != 2 || done != 2 {
		t.Errorf("got %d cached + %d done, want 2 + 2", cached, done)
	}

	// A third pass must be 100% cache hits with zero executor calls.
	reran = 0
	third := Map(context.Background(), cfgs, Options{Cache: cache, Run: countingRun})
	if reran != 0 {
		t.Errorf("third pass reran %d run(s), want 0", reran)
	}
	for i, p := range third {
		if p.Status != Cached {
			t.Errorf("third pass point %d: status %s, want cached", i, p.Status)
		}
	}
}

// TestForgetRecomputes covers -resume=false: Forget drops the index so every
// run recomputes, but completions are still persisted.
func TestForgetRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(3)

	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	Map(context.Background(), cfgs, Options{Cache: cache, Run: fastRun})
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	cache, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cache.Forget()
	var reran int
	pts := Map(context.Background(), cfgs, Options{
		Parallelism: 1,
		Cache:       cache,
		Run: func(ctx context.Context, c sim.Config) (*stats.Result, error) {
			reran++
			return fastRun(ctx, c)
		},
	})
	if reran != len(cfgs) {
		t.Errorf("after Forget reran %d, want %d", reran, len(cfgs))
	}
	for _, p := range pts {
		if p.Status != Done {
			t.Errorf("point %d: status %s, want done", p.Index, p.Status)
		}
	}
	if cache.Len() != len(cfgs) {
		t.Errorf("Len() = %d after re-persisting, want %d", cache.Len(), len(cfgs))
	}
}

// TestCacheRealRun persists an actual simulation result and re-serves it
// identically — the histogram JSON round trip has to be exact for this.
func TestCacheRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	cfg := sim.Default()
	cfg.K = 4
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 300

	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	first := Map(context.Background(), []sim.Config{cfg}, Options{Cache: cache})
	if first[0].Status != Done || first[0].Result == nil {
		t.Fatalf("first run: %+v", first[0])
	}
	second := Map(context.Background(), []sim.Config{cfg}, Options{Cache: cache})
	if second[0].Status != Cached || second[0].Result == nil {
		t.Fatalf("second run not served from cache: %+v", second[0])
	}
	a, _ := json.Marshal(first[0].Result)
	b, _ := json.Marshal(second[0].Result)
	if !bytes.Equal(a, b) {
		t.Errorf("cached real result drifted:\n first  %s\n second %s", a, b)
	}
}
