package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/stats"
)

func TestSpecsShapeAndRoundTrip(t *testing.T) {
	want := map[string]int{"subsat-sweep": 12, "saturated-sweep": 8, "bignet-run": 1,
		"resweep-warm": warmPoints, "fleet-loopback": fleetPoints}
	seeds := map[uint64]string{}
	for _, w := range workloads {
		spec := w.spec(defaultSeed)
		if got := spec.NumPoints(); got != want[w.name] {
			t.Errorf("%s: %d points, want %d", w.name, got, want[w.name])
		}
		var buf bytes.Buffer
		if err := specv1.EncodeSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		back, err := specv1.DecodeSpec(&buf)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: spec changed across EncodeSpec/DecodeSpec", w.name)
		}
		if !reflect.DeepEqual(spec, w.spec(defaultSeed)) {
			t.Errorf("%s: the same seed gave a different spec", w.name)
		}
		if w.kind == engine {
			continue
		}
		// The two tiny-point workloads share a generator and one store
		// format; their points must not dedupe against each other.
		for _, p := range spec.Points {
			if other, dup := seeds[p.Seed]; dup {
				t.Fatalf("%s: point seed %d already used by %s", w.name, p.Seed, other)
			}
			seeds[p.Seed] = w.name
		}
	}
}

// The two sweep workloads must sit on either side of saturation, or they no
// longer separate a change aimed at blocked messages from one that is not.
// Checked at a tenth of the windows to stay within the tier-1 budget.
func TestSweepsStraddleSaturation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		saturated bool
	}{{"subsat-sweep", false}, {"saturated-sweep", true}} {
		w, err := workloadByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		spec := w.spec(defaultSeed)
		for i := range spec.Points {
			spec.Points[i].WarmupCycles /= 10
			spec.Points[i].MeasureCycles /= 10
		}
		pts, err := core.RunSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if p.Err != nil {
				t.Fatalf("%s point %d: %v", tc.name, i, p.Err)
			}
			if p.Result.Saturated != tc.saturated {
				t.Errorf("%s point %d (%s load %g): Saturated = %v", tc.name, i,
					p.Result.Label, p.Load, p.Result.Saturated)
			}
		}
	}
}

// BENCHMARK.json and the binary's metric tables are written by hand in two
// places; this keeps the two from drifting.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the binary %q (or their whys differ)", i, file.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why over 200 characters", w.name)
		}
	}
	same := func(what string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", what, i, g, d)
			}
			if !name.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", what, d.name)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the binary's %v", what, d.name, d.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	for n := range exactCounts {
		newMetricSet(perLayer).set(n, 0) // panics on a name the table lacks
	}
}

func TestDigestIgnoresOnlyWallClockHistograms(t *testing.T) {
	mk := func(build int64, delivered int64) []specv1.PointResult {
		res := &stats.Result{Label: "x", Delivered: delivered}
		res.DetectBuildTime.Observe(build)
		res.DetectAnalyzeTime.Observe(build * 2)
		raw, err := specv1.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return []specv1.PointResult{{SchemaVersion: specv1.Version, Key: "k", Status: specv1.StatusDone, Result: raw}}
	}
	a, _, err := digest(mk(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := digest(mk(90000, 5))
	c, pc, _ := digest(mk(100, 6))
	if a != b {
		t.Error("digest depends on the wall-clock detector histograms")
	}
	if a == c {
		t.Error("digest does not depend on a simulated count")
	}
	_, pa, _ := digest(mk(100, 5))
	if err := sameDigests("x", mk(100, 6), pc, pa); err == nil {
		t.Error("sameDigests accepted differing points")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	// root 0..100: a child 10..40 holding an aggregate of 20, a child 50..90.
	tr.spans = []span{
		{ID: 1, Parent: 0, Layer: "other", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "sim", Start: 10, End: 40},
		{ID: 3, Parent: 2, Layer: "network", Start: 10, End: 30},
		{ID: 4, Parent: 1, Layer: "specv1", Start: 50, End: 90},
	}
	self, wall := tr.selfTimes()
	want := map[string]time.Duration{"other": 30, "sim": 10, "network": 20, "specv1": 40}
	if wall != 100 || !reflect.DeepEqual(self, want) {
		t.Errorf("wall %d self %v, want 100 %v", wall, self, want)
	}
}
