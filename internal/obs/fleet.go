package obs

// Fleet scheduler telemetry: the sweep coordinator's live view of its work
// queue and worker pool — queue depth, in-flight points, steals, retries by
// cause, per-worker throughput and busy fraction, and a settled-point latency
// histogram — exposed as flexsweep_* gauges on the shared /metrics endpoint,
// with the settled points by status and the store hit ratio read from the
// coordinator's SweepProgress. All mutators are called from coordinator
// worker loops; the reader (expose) formats into memory under the same lock.

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"flexsim/internal/stats"
)

// fleetWorker accumulates one worker's contribution.
type fleetWorker struct {
	points  int64
	running int64
	// busyNS sums the end of every finished attempt minus the start of every
	// attempt, in nanoseconds since the epoch: each running attempt adds the
	// current time on read.
	busyNS int64
}

// FleetMetrics is the coordinator's scheduler telemetry. The zero value is
// not ready; use NewFleetMetrics.
type FleetMetrics struct {
	queueDepth func() int
	progress   *SweepProgress
	inFlight   atomic.Int64
	steals     atomic.Int64

	mu      sync.Mutex
	start   time.Time
	retries map[string]int64
	workers map[string]*fleetWorker
	latency stats.Histogram // settled-point latency, milliseconds
}

// NewFleetMetrics returns scheduler telemetry anchored at now (busy
// fractions and points/sec are measured against this epoch) that reads the
// work queue's length from queueDepth and the settled points from progress.
func NewFleetMetrics(queueDepth func() int, progress *SweepProgress) *FleetMetrics {
	return &FleetMetrics{
		queueDepth: queueDepth,
		progress:   progress,
		start:      time.Now(),
		retries:    make(map[string]int64),
		workers:    make(map[string]*fleetWorker),
	}
}

// QueueDepth returns the current work-queue depth.
func (m *FleetMetrics) QueueDepth() int64 { return int64(m.queueDepth()) }

// RunStart marks one execution attempt entering a worker.
func (m *FleetMetrics) RunStart(worker string) {
	m.inFlight.Add(1)
	m.mu.Lock()
	w := m.worker(worker)
	w.running++
	w.busyNS -= time.Since(m.start).Nanoseconds()
	m.mu.Unlock()
}

// RunEnd marks the attempt leaving the worker.
func (m *FleetMetrics) RunEnd(worker string) {
	m.inFlight.Add(-1)
	m.mu.Lock()
	w := m.worker(worker)
	w.running--
	w.points++
	w.busyNS += time.Since(m.start).Nanoseconds()
	m.mu.Unlock()
}

// worker returns worker's accumulator, under m.mu.
func (m *FleetMetrics) worker(name string) *fleetWorker {
	w := m.workers[name]
	if w == nil {
		w = &fleetWorker{}
		m.workers[name] = w
	}
	return w
}

// InFlight returns the number of attempts currently executing.
func (m *FleetMetrics) InFlight() int64 { return m.inFlight.Load() }

// Retry counts one point re-execution by failure cause (worker-death, 5xx,
// panic, timeout).
func (m *FleetMetrics) Retry(cause string) {
	m.mu.Lock()
	m.retries[cause]++
	m.mu.Unlock()
}

// Retries returns a copy of the per-cause retry counters.
func (m *FleetMetrics) Retries() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.retries))
	for c, n := range m.retries {
		out[c] = n
	}
	return out
}

// Steal counts one point picked up by a different worker than its previous
// attempt ran on.
func (m *FleetMetrics) Steal() { m.steals.Add(1) }

// Steals returns the steal counter.
func (m *FleetMetrics) Steals() int64 { return m.steals.Load() }

// PointSettled records one point's queue-to-settle latency; the point itself
// is counted by the progress' Settled.
func (m *FleetMetrics) PointSettled(latency time.Duration) {
	m.mu.Lock()
	m.latency.Observe(latency.Milliseconds())
	m.mu.Unlock()
}

// HitRatio returns the store hit ratio: cached / settled (0 when nothing
// has settled).
func (m *FleetMetrics) HitRatio() float64 {
	done, cached, failed, cancelled := m.progress.Runs()
	total := done + cached + failed + cancelled
	if total == 0 {
		return 0
	}
	return float64(cached) / float64(total)
}

// WritePrometheus renders the fleet gauges in Prometheus text format.
func (m *FleetMetrics) WritePrometheus(w io.Writer) error { return writeExposition(w, m) }

func (m *FleetMetrics) expose(e *exposition) {
	done, cached, failed, cancelled := m.progress.Runs()
	scalar(e, "flexsweep_queue_depth", "gauge", "Points waiting in the coordinator work queue.", m.QueueDepth())
	scalar(e, "flexsweep_inflight", "gauge", "Point attempts currently executing on workers.", m.InFlight())
	scalar(e, "flexsweep_steals_total", "counter", "Points picked up by a different worker than their previous attempt.", m.Steals())
	vec(e, "flexsweep_points_total", "counter", "Points settled, by terminal status.", "status",
		map[string]int64{"cached": cached, "done": done, "failed": failed + cancelled})
	scalar(e, "flexsweep_store_hit_ratio", "gauge", "Fraction of settled points served from the shared store.", m.HitRatio())

	m.mu.Lock()
	defer m.mu.Unlock()
	vec(e, "flexsweep_retries_total", "counter", "Point re-executions, by failure cause.", "cause", m.retries)
	points, busy, rate := map[string]int64{}, map[string]float64{}, map[string]float64{}
	elapsed := time.Since(m.start)
	for name, wk := range m.workers {
		points[name], busy[name], rate[name] = wk.points, 0, 0
		if elapsed > 0 {
			busy[name] = float64(wk.busyNS+wk.running*elapsed.Nanoseconds()) / float64(elapsed.Nanoseconds())
			rate[name] = float64(wk.points) / elapsed.Seconds()
		}
	}
	vec(e, "flexsweep_worker_points_total", "counter", "Points settled per worker.", "worker", points)
	vec(e, "flexsweep_worker_busy_fraction", "gauge", "Fraction of wall time each worker spent executing.", "worker", busy)
	vec(e, "flexsweep_worker_points_per_second", "gauge", "Settled points per second per worker.", "worker", rate)
	e.summary("flexsweep_point_latency_ms", "Queue-to-settle point latency in milliseconds.", &m.latency)
}
