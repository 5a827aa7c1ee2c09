package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// profCfg is a small configuration that drives enough traffic for every
// engine phase to do work.
func profCfg() Config {
	c := Default()
	c.K = 4
	c.Load = 0.8
	c.WarmupCycles = 50
	c.MeasureCycles = 400
	return c
}

// TestRunOwnedArtifacts: run-owned Perfetto and heatmap files expand their
// "*" to one file each, the trace a valid array with no engine (pid 3)
// events and the heatmap a CSV with its header.
func TestRunOwnedArtifacts(t *testing.T) {
	dir := t.TempDir()
	c := profCfg()
	c.SpansPath = filepath.Join(dir, "trace-*.json")
	c.HeatmapPath = filepath.Join(dir, "heat-*.csv")
	if _, err := Run(c); err != nil {
		t.Fatal(err)
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
	for _, e := range events {
		if e["pid"].(float64) == 3 {
			t.Fatalf("engine lane event in the Perfetto export: %v", e)
		}
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

// TestRunProfileEngineSequential: ProfileEngine attaches the engine's
// telemetry — phase time accrues — and does not change the Result.
func TestRunProfileEngineSequential(t *testing.T) {
	run := func(profile bool) (*Runner, int64, int64, int64) {
		c := profCfg()
		c.ProfileEngine = profile
		r, err := NewRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run()
		return r, res.Delivered, res.Deadlocks, res.SumLatency
	}
	r, d1, k1, l1 := run(true)
	es := r.Net.EngineStatsAttached()
	if es == nil || es.TotalWallNs() <= 0 {
		t.Fatalf("profiled run attached %+v, want stats with phase time", es)
	}
	plain, d0, k0, l0 := run(false)
	if plain.Net.EngineStatsAttached() != nil {
		t.Error("unprofiled run attached engine stats")
	}
	if d1 != d0 || k1 != k0 || l1 != l0 {
		t.Errorf("profiling changed results: delivered %d/%d, deadlocks %d/%d, latency sum %d/%d",
			d1, d0, k1, k0, l1, l0)
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
