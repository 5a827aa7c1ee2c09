package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flexsim/internal/stats"
)

// TestFinishDetachesResult: a sweep holds every point's Result until it
// returns, so a Result must not keep its simulator alive. Finish used to
// return a pointer into the Runner, pinning the network, the detector and
// the wait-for-graph arenas (~200 KB for a 4-ary point) behind each ~2 KB
// record.
func TestFinishDetachesResult(t *testing.T) {
	c := tiny()
	c.Load = 0.6 // saturated: the detector runs full passes, so its timing histograms fill
	r, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.WarmupCycles; i++ {
		r.StepCycle()
	}
	r.StartMeasurement()
	for i := 0; i < c.MeasureCycles; i++ {
		r.StepCycle()
	}
	res := r.Finish()
	if res.Latency.Count() == 0 || res.DetectBuildTime.Count() == 0 {
		t.Fatalf("run too quiet to test: %d deliveries, %d timed detector passes",
			res.Latency.Count(), res.DetectBuildTime.Count())
	}

	// Trimming must not show in the encoding: each detached histogram
	// encodes as the Runner's own (pre-grown) one does, and the Result
	// survives the store's decode/re-encode round trip byte for byte.
	for _, h := range []struct {
		name     string
		detached *stats.Histogram
		own      *stats.Histogram
	}{
		{"Latency", &res.Latency, &r.res.Latency},
		{"DetectBuildTime", &res.DetectBuildTime, &r.Detector.Stats.DetectBuildTime},
		{"DetectAnalyzeTime", &res.DetectAnalyzeTime, &r.Detector.Stats.DetectAnalyzeTime},
	} {
		counts := reflect.ValueOf(h.detached).Elem().FieldByName("counts")
		n := counts.Len()
		if n == 0 || counts.Index(n-1).Int() == 0 || counts.Cap() != n {
			t.Errorf("%s: %d buckets (cap %d) ending in an empty one; want trimmed to the last sample",
				h.name, n, counts.Cap())
		}
		own := reflect.ValueOf(h.own).Elem().FieldByName("counts")
		if own.Len() > 0 && counts.Pointer() == own.Pointer() {
			t.Errorf("%s shares its buckets with the Runner", h.name)
		}
		a, _ := json.Marshal(h.detached)
		b, _ := json.Marshal(h.own)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: detached copy encodes differently:\n got  %s\n want %s", h.name, a, b)
		}
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back stats.Result
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(&back); !bytes.Equal(enc, again) {
		t.Errorf("detached result does not round-trip:\n first %s\n again %s", enc, again)
	}

	// The delivery hook is the one reference from the network back to the
	// Runner; a finalizer cannot run on an object in a cycle.
	r.Net.OnDeliver = nil
	collected := make(chan struct{})
	runtime.SetFinalizer(r, func(*Runner) { close(collected) })
	r = nil
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Error("the Runner is still reachable while only its Result is held")
	}
	runtime.KeepAlive(res)
}
