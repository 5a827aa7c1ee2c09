package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// The layers wall time is attributed to. A span's layer is the package whose
// public function the harness was inside; routing is called only from inside
// network.Step, so it has probes (probes.go) but no spans of its own.
var layers = []string{"traffic", "network", "detect", "sim", "runner", "specv1", "core", "sweepsvc", "other"}

// span is one timed call from the harness into a layer. Spans are recorded
// by the benchmark's own files around calls into public functions, kept in
// memory, and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = the repetition's root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Point  int    `json:"point"` // -1 = the whole sweep
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls > 1 marks an aggregate: the per-cycle calls of one point folded
	// into one span whose length is their summed duration.
	Calls int64 `json:"calls"`
}

// tracer records the spans of one repetition on one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // ids of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one; the returned function
// closes it.
func (t *tracer) begin(layer, name string, point int) func() {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Layer: layer,
		Point: point, Start: time.Since(t.t0).Nanoseconds(), Calls: 1})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// add records calls already timed by the caller — the engine workloads' per-
// cycle calls, one aggregate per layer per point — as a child of the
// innermost open span, placed at that span's start.
func (t *tracer) add(layer, name string, point int, total time.Duration, calls int64) {
	start := t.spans[t.parent()-1].Start
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Name: name, Layer: layer,
		Point: point, Start: start, End: start + total.Nanoseconds(), Calls: calls})
}

// selfTimes returns each layer's self time — its spans' durations minus
// what their direct children cover — and the root span's duration.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Layer] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return self, time.Duration(children[0])
}

// account checks that the layers' self times cover the traced wall and sets
// the share metrics; what no layer covers is printed as "other", not dropped.
func (t *tracer) account(ms *metricSet) error {
	self, wall := t.selfTimes()
	var covered time.Duration
	fmt.Printf("  traced wall %.4f s, self time by layer:\n", wall.Seconds())
	for _, l := range layers {
		share := float64(self[l]) / float64(wall)
		fmt.Printf("    %-9s %9.4f s  %5.1f%%\n", l, self[l].Seconds(), 100*share)
		if l != "other" {
			covered += self[l]
		}
	}
	for _, l := range []string{"traffic", "sim", "runner", "specv1", "core", "sweepsvc", "other"} {
		ms.set(l+".share", float64(self[l])/float64(wall))
	}
	if c := float64(covered) / float64(wall); c < 0.95 || c > 1.05 {
		return fmt.Errorf("layer self times cover %.1f%% of the traced wall, want 95-105%%", 100*c)
	}
	return nil
}

// write stores the spans as JSONL, in start order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
