package flags

import (
	"context"
	"flag"
	"io"
	"runtime"
	"testing"
	"time"

	"flexsim/internal/sim"
)

// TestBindFlexsimSurface registers the shared flexsim flag groups on one
// FlagSet — a duplicate name across the binders would panic here — and
// checks that parsing lands in the right places.
func TestBindFlexsimSurface(t *testing.T) {
	fs := flag.NewFlagSet("flexsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := sim.Default()
	spec := BindSpec(fs, &cfg)
	v := BindCommon(fs)

	err := fs.Parse([]string{
		"-k", "8", "-vcs", "3", "-routing", "dor", "-load", "0.9",
		"-uni", "-no-recover", "-census",
		"-spans-out", "trace.json", "-forensics-depth", "4096", "-heatmap-out", "heat.csv",
		"-timeout", "90s", "-cache-dir", "/tmp/c", "-resume=false",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Apply(); err != nil {
		t.Fatal(err)
	}

	if cfg.K != 8 || cfg.VCs != 3 || cfg.Routing != "dor" || cfg.Load != 0.9 {
		t.Errorf("config flags misbound: %+v", cfg)
	}
	if v.ForensicsDepth != 4096 {
		t.Errorf("ForensicsDepth = %d, want 4096", v.ForensicsDepth)
	}
	if v.SpansOut != "trace.json" || v.HeatmapOut != "heat.csv" {
		t.Errorf("observability outputs misbound: %+v", v)
	}
	// A single run owns its artifact paths as given.
	in, _, err := v.Instrumentation(false)
	if err != nil {
		t.Fatal(err)
	}
	if in.SpansPath != "trace.json" || in.HeatmapPath != "heat.csv" || in.ForensicsDepth != 4096 ||
		in.ProfileEngine || in.MetricsSink != nil || in.MetricsEvery != 0 {
		t.Errorf("Instrumentation(false) = %+v", in)
	}
	if cfg.Bidirectional || cfg.Recover || !cfg.CycleCensus {
		t.Errorf("inverted extras misapplied: Bidirectional=%v Recover=%v Census=%v",
			cfg.Bidirectional, cfg.Recover, cfg.CycleCensus)
	}
	if v.Timeout != 90*time.Second || v.CacheDir != "/tmp/c" || v.Resume {
		t.Errorf("common flags misbound: %+v", v)
	}
}

// TestBindCharsweepSurface does the same for the charsweep groups; the
// flags only charsweep reads are covered in cmd/charsweep.
func TestBindCharsweepSurface(t *testing.T) {
	fs := flag.NewFlagSet("charsweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := BindPlan(fs)
	v := BindCommon(fs)

	err := fs.Parse([]string{
		"-quick", "-loads", "0.2, 0.6,1.0", "-timeout", "1m",
		"-spans-out", "traces/run.json", "-heatmap-out", "heat.csv", "-forensics-depth", "1024",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Quick {
		t.Errorf("plan flags misbound: %+v", s)
	}
	// Flag parity with flexsim: the observability artifacts bind through the
	// shared group, and the sweep-side paths gain a per-run "*" placeholder.
	if v.SpansOut != "traces/run.json" || v.HeatmapOut != "heat.csv" || v.ForensicsDepth != 1024 {
		t.Errorf("observability flags misbound: %+v", v)
	}
	in, _, err := v.Instrumentation(true)
	if err != nil {
		t.Fatal(err)
	}
	if in.SpansPath != "traces/run-*.json" || in.HeatmapPath != "heat-*.csv" || in.ForensicsDepth != 1024 ||
		in.ProfileEngine {
		t.Errorf("Instrumentation(true) = %+v", in)
	}
	if !v.Resume {
		t.Errorf("resume must default to true")
	}
	opts, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Loads) != 3 || opts.Loads[0] != 0.2 || opts.Loads[2] != 1.0 {
		t.Errorf("loads parsed as %v", opts.Loads)
	}
	if !opts.Quick {
		t.Errorf("options miswired: %+v", opts)
	}
	if v.Timeout != time.Minute {
		t.Errorf("timeout = %v", v.Timeout)
	}
}

// TestNoShardsFlag: the shard count is execution strategy and no CLI flag
// selects it. A configuration bound from no flags leaves Shards zero, which
// is the sequential engine whatever GOMAXPROCS is; an integer FLEXSIM_SHARDS
// is the one override, and "auto" is as unparsable as any other word.
func TestNoShardsFlag(t *testing.T) {
	flex := flag.NewFlagSet("flexsim", flag.ContinueOnError)
	cfg := sim.Default()
	BindSpec(flex, &cfg)
	common := BindCommon(flex)
	sweepFS := flag.NewFlagSet("charsweep", flag.ContinueOnError)
	s := BindPlan(sweepFS)
	BindCommon(sweepFS)
	if flex.Lookup("shards") != nil || sweepFS.Lookup("shards") != nil {
		t.Fatal("-shards is registered")
	}
	if err := flex.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := sweepFS.Parse(nil); err != nil {
		t.Fatal(err)
	}
	in, _, err := common.Instrumentation(false)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 0 || in.Shards != 0 || opts.Instrumentation.Shards != 0 {
		t.Fatalf("Shards bound from no flags: config %d, instrumentation %d, options %d",
			cfg.Shards, in.Shards, opts.Instrumentation.Shards)
	}
	cfg.K, cfg.WarmupCycles, cfg.MeasureCycles = 4, 0, 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct {
		env  string
		want int
	}{{"", 1}, {"4", 4}, {"auto", 1}, {"2.5", 1}} {
		t.Setenv("FLEXSIM_SHARDS", c.env)
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Net.Shards(); got != c.want {
			t.Errorf("FLEXSIM_SHARDS=%q: %d shard(s), want %d", c.env, got, c.want)
		}
		r.Close()
	}
}

func TestSweepOptionsBadLoads(t *testing.T) {
	s := &Plan{Loads: "0.2,nope"}
	if _, err := s.Options(); err == nil {
		t.Fatal("bad -loads accepted")
	}
}

// TestSignalContextTimeout: -timeout produces a context that expires; the
// cancel function releases the signal handler.
func TestSignalContextTimeout(t *testing.T) {
	ctx, cancel := SignalContext(time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("timeout context never expired")
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", ctx.Err())
	}
}

// TestOpenCacheDisabled: no -cache-dir means no cache, not an error.
func TestOpenCacheDisabled(t *testing.T) {
	v := &Values{}
	c, err := v.OpenCache()
	if err != nil || c != nil {
		t.Fatalf("OpenCache() = %v, %v; want nil, nil", c, err)
	}
}

// TestOpenCacheResumeFalse: -resume=false opens the cache but ignores the
// persisted index.
func TestOpenCacheResumeFalse(t *testing.T) {
	dir := t.TempDir()
	v := &Values{CacheDir: dir, Resume: true}
	c, err := v.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Put(quickCfg(), res)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	v.Resume = false
	c, err = v.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Errorf("with -resume=false Len() = %d, want 0", c.Len())
	}
}

// quickCfg is a sub-second configuration for cache tests.
func quickCfg() sim.Config {
	c := sim.Default()
	c.K = 4
	c.WarmupCycles = 20
	c.MeasureCycles = 100
	return c
}
