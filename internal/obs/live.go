package obs

import (
	"io"
	"sync"
)

// Live holds the latest interval sample so an HTTP handler can read it
// while the single-goroutine cycle loop keeps running. Store is one
// uncontended lock and a struct copy on the sampling cadence — nothing
// touches the per-cycle hot path — and a reader never sees half a sample.
type Live struct {
	mu sync.Mutex
	g  Gauges
}

// Store publishes a sample.
func (l *Live) Store(g Gauges) {
	l.mu.Lock()
	l.g = g
	l.mu.Unlock()
}

// Snapshot returns the most recently published sample.
func (l *Live) Snapshot() Gauges {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.g
}

// WritePrometheus renders the sample in Prometheus text exposition format.
func (l *Live) WritePrometheus(w io.Writer) error { return writeExposition(w, l) }

func (l *Live) expose(e *exposition) {
	g := l.Snapshot()
	for _, d := range gauges {
		scalar(e, d.name, d.typ, d.help, d.get(&g))
	}
}
