package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ExperimentState is a sweep experiment's lifecycle state.
type ExperimentState string

// Experiment states.
const (
	Pending   ExperimentState = "pending"
	Running   ExperimentState = "running"
	Done      ExperimentState = "done"
	Failed    ExperimentState = "failed"
	Cancelled ExperimentState = "cancelled"
)

// ExperimentStatus is one experiment's progress entry.
type ExperimentStatus struct {
	ID      string          `json:"id"`
	State   ExperimentState `json:"state"`
	Seconds float64         `json:"seconds,omitempty"`
}

// SweepProgress is the one tally of a sweep process — a charsweep
// invocation or a sweep coordinator: which experiments (sweeps, at a
// coordinator) are pending/running/done, and how many simulation runs
// settled done, cached, failed or cancelled. It backs /progress, and its run
// counters back both the flexsim_sweep_runs_* and the flexsweep_points_total
// families. Settled is called from worker goroutines; the rest from the
// sweep's main goroutine.
type SweepProgress struct {
	runsDone      atomic.Int64
	runsCached    atomic.Int64
	runsFailed    atomic.Int64
	runsCancelled atomic.Int64

	mu    sync.Mutex
	order []string
	exps  map[string]*ExperimentStatus
}

// NewSweepProgress tracks the given experiment ids.
func NewSweepProgress(ids []string) *SweepProgress {
	p := &SweepProgress{exps: make(map[string]*ExperimentStatus, len(ids))}
	for _, id := range ids {
		p.order = append(p.order, id)
		p.exps[id] = &ExperimentStatus{ID: id, State: Pending}
	}
	return p
}

// Settled counts one simulation run by the status it settled with (a
// runner.Status: "cached", "failed", "cancelled", else done). It is the only
// place a point's status becomes a count; concurrency-safe.
func (p *SweepProgress) Settled(status string) {
	switch status {
	case "cached":
		p.runsCached.Add(1)
	case "failed":
		p.runsFailed.Add(1)
	case "cancelled":
		p.runsCancelled.Add(1)
	default:
		p.runsDone.Add(1)
	}
}

// Runs returns the run counters.
func (p *SweepProgress) Runs() (done, cached, failed, cancelled int64) {
	return p.runsDone.Load(), p.runsCached.Load(), p.runsFailed.Load(), p.runsCancelled.Load()
}

// Start marks an experiment as running.
func (p *SweepProgress) Start(id string) { p.setState(id, Running, 0) }

// Finish marks an experiment as done with its wall time.
func (p *SweepProgress) Finish(id string, d time.Duration) { p.setState(id, Done, d) }

// Fail marks an experiment as failed.
func (p *SweepProgress) Fail(id string) { p.setState(id, Failed, 0) }

// Cancel marks an experiment as cancelled (sweep interrupted before or
// while it ran).
func (p *SweepProgress) Cancel(id string) { p.setState(id, Cancelled, 0) }

func (p *SweepProgress) setState(id string, s ExperimentState, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exps[id]
	if !ok {
		e = &ExperimentStatus{ID: id}
		p.order = append(p.order, id)
		p.exps[id] = e
	}
	e.State = s
	if d > 0 {
		e.Seconds = d.Seconds()
	}
}

// snapshot copies the current progress under the lock.
func (p *SweepProgress) snapshot() (exps []ExperimentStatus, done int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range p.order {
		e := p.exps[id]
		exps = append(exps, *e)
		if e.State == Done {
			done++
		}
	}
	return exps, done
}

// WriteJSON renders the progress view.
func (p *SweepProgress) WriteJSON(w io.Writer) error {
	exps, done := p.snapshot()
	return json.NewEncoder(w).Encode(struct {
		Experiments     []ExperimentStatus `json:"experiments"`
		ExperimentsDone int                `json:"experiments_done"`
		Total           int                `json:"experiments_total"`
		RunsDone        int64              `json:"runs_done"`
		RunsCached      int64              `json:"runs_cached"`
		RunsFailed      int64              `json:"runs_failed"`
		RunsCancelled   int64              `json:"runs_cancelled"`
	}{exps, done, len(exps), p.runsDone.Load(), p.runsCached.Load(), p.runsFailed.Load(), p.runsCancelled.Load()})
}

// WritePrometheus renders sweep counters in Prometheus text format.
func (p *SweepProgress) WritePrometheus(w io.Writer) error { return writeExposition(w, p) }

func (p *SweepProgress) expose(e *exposition) {
	exps, done := p.snapshot()
	scalar(e, "flexsim_sweep_experiments_total", "gauge", "Experiments in this sweep.", int64(len(exps)))
	scalar(e, "flexsim_sweep_experiments_done", "gauge", "Experiments completed.", int64(done))
	scalar(e, "flexsim_sweep_runs_done_total", "counter", "Simulation runs completed.", p.runsDone.Load())
	scalar(e, "flexsim_sweep_runs_cached_total", "counter", "Simulation runs served from the result cache.", p.runsCached.Load())
	scalar(e, "flexsim_sweep_runs_failed_total", "counter", "Simulation runs failed.", p.runsFailed.Load())
	scalar(e, "flexsim_sweep_runs_cancelled_total", "counter", "Simulation runs cancelled.", p.runsCancelled.Load())
}
