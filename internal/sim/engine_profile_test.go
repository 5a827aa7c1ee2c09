package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/obs"
)

// profCfg is a small 4-shard configuration that drives enough traffic for
// every engine phase to do work.
func profCfg() Config {
	c := Default()
	c.K = 4
	c.Load = 0.8
	c.WarmupCycles = 50
	c.MeasureCycles = 400
	c.Shards = 4
	return c
}

// TestRunProfileEngine: the full -profile-engine path — ProfileEngine with
// an EngineSink plus run-owned Perfetto and heatmap files — produces a
// populated report, a valid pid-3 engine lane, and the heatmap CSV.
func TestRunProfileEngine(t *testing.T) {
	dir := t.TempDir()
	prof := &obs.EngineProfile{}
	c := profCfg()
	c.ProfileEngine = true
	c.EngineSink = prof
	c.SpansPath = filepath.Join(dir, "trace-*.json")
	c.HeatmapPath = filepath.Join(dir, "heat-*.csv")
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}

	rep := prof.Report()
	if rep.Runs != 1 || rep.Shards != 4 {
		t.Fatalf("report header: %d runs, %d shards", rep.Runs, rep.Shards)
	}
	if rep.Cycles != 450 {
		t.Errorf("Cycles = %d, want 450 (warmup+measure)", rep.Cycles)
	}
	if rep.BusyNs <= 0 || rep.WallNs <= 0 {
		t.Errorf("no engine time recorded: busy %d, wall %d", rep.BusyNs, rep.WallNs)
	}
	if rep.CrossShardGrants == 0 {
		t.Error("no cross-shard grants in a 4-shard all-shard-pair run")
	}

	matches, err := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("spans files = %v (err %v), want exactly one", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("spans file is not a JSON array: %v", err)
	}
	engine := 0
	for _, e := range events {
		if e["pid"].(float64) == 3 && e["ph"] == "X" {
			engine++
		}
	}
	if engine == 0 {
		t.Error("no pid-3 engine slices in the Perfetto export")
	}

	heat, err := filepath.Glob(filepath.Join(dir, "heat-*.csv"))
	if err != nil || len(heat) != 1 {
		t.Fatalf("heatmap files = %v (err %v), want exactly one", heat, err)
	}
	hb, err := os.ReadFile(heat[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(hb), "vc,label,") {
		t.Errorf("heatmap CSV header missing: %q", string(hb[:min(len(hb), 40)]))
	}
}

// TestRunProfileEngineSequential: ProfileEngine on a 1-shard run uses the
// profiled sequential driver — phase timings accrue to shard 0 with no
// cross-shard traffic — and results are identical to an unprofiled run.
func TestRunProfileEngineSequential(t *testing.T) {
	prof := &obs.EngineProfile{}
	c := profCfg()
	c.Shards = 1
	c.ProfileEngine = true
	c.EngineSink = prof
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	rep := prof.Report()
	if rep.Shards != 1 || rep.BusyNs <= 0 {
		t.Fatalf("sequential profile: %d shards, busy %d", rep.Shards, rep.BusyNs)
	}
	if rep.CrossShardRequests != 0 || rep.CrossShardGrants != 0 {
		t.Errorf("sequential run moved cross-shard traffic: %d/%d",
			rep.CrossShardRequests, rep.CrossShardGrants)
	}

	plain := profCfg()
	plain.Shards = 1
	base, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != base.Delivered || res.Deadlocks != base.Deadlocks {
		t.Errorf("profiling changed results: %d/%d delivered, %d/%d deadlocks",
			res.Delivered, base.Delivered, res.Deadlocks, base.Deadlocks)
	}
}

// TestEngineGaugesInMetrics: with ProfileEngine on, interval samples carry
// nonzero engine gauges; with it off, the columns stay exactly zero (the
// shard-determinism CI diff depends on that).
func TestEngineGaugesInMetrics(t *testing.T) {
	run := func(profile bool) []obs.Gauges {
		rec := &capture{}
		c := profCfg()
		c.ProfileEngine = profile
		c.MetricsEvery = 100
		c.MetricsSink = rec
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		return rec.samples
	}
	var busy, stall, xshard int64
	for _, g := range run(true) {
		busy += g.EngineBusyNs
		stall += g.EngineStallNs
		xshard += g.EngineCrossShard
	}
	if busy == 0 || xshard == 0 {
		t.Errorf("profiled run recorded busy=%d stall=%d xshard=%d", busy, stall, xshard)
	}
	for _, g := range run(false) {
		if g.EngineBusyNs != 0 || g.EngineStallNs != 0 || g.EngineCrossShard != 0 {
			t.Fatalf("unprofiled run leaked engine gauges: %+v", g)
		}
	}
}

// capture is a RunSink retaining every sample for assertions.
type capture struct{ samples []obs.Gauges }

func (c *capture) Run(meta obs.RunMeta, rec *obs.Recorder) {
	for i := 0; i < rec.Len(); i++ {
		c.samples = append(c.samples, rec.At(i))
	}
}

// TestExpandRunPath: the "*" placeholder expands to a filesystem-safe
// run stem; paths without one pass through untouched.
func TestExpandRunPath(t *testing.T) {
	c := Config{Spec: Spec{Label: "uniform/dor", Seed: 7, Load: 0.6}}
	if got := expandRunPath("out/run-*.json", c); got != "out/run-uniform-dor-s7-l0.6.json" {
		t.Errorf("expandRunPath = %q", got)
	}
	if got := expandRunPath("plain.json", c); got != "plain.json" {
		t.Errorf("no-placeholder path rewritten to %q", got)
	}
}
