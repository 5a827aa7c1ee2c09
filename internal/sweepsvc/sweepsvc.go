// Package sweepsvc is the sweep service: a coordinator that accepts
// versioned sweep specifications (specv1), expands them into simulation
// points, schedules the points onto a pool of workers, and streams progress
// and results to any number of concurrent clients.
//
// The coordinator is failure-oriented throughout:
//
//   - Workers pull work from a shared queue, so a fast worker naturally
//     takes points a slow one hasn't claimed (work stealing). A point whose
//     worker dies mid-run — a killed fleet process, a transport error, an
//     isolated panic — is requeued at the front and re-executed elsewhere,
//     up to MaxRetries re-executions, while the failing worker's loop gates
//     on its /healthz endpoint instead of pulling more work.
//   - Results dedupe across sweeps through the shared content-addressed
//     store (runner.Cache): a point whose configuration is already persisted
//     settles as cached without executing, whether it completed in a prior
//     sweep, a prior process, or on a fleet worker sharing the store.
//   - Every submission and scheduler transition is journaled, so a
//     restarted coordinator resumes unfinished sweeps exactly where they
//     stopped: completed points are served from the store, unfinished ones
//     re-enter the queue, and nothing executes twice. The journal is also
//     the fleet span log, and the scheduler metrics and retry/steal events
//     are fed from the same records.
//   - Drain stops the service gracefully: submissions are refused, queued
//     points are dropped (the journal resumes them), and in-flight points
//     get a grace period to finish before being cancelled.
//
// A point has one life cycle wherever it runs: the runner's, which the CLIs
// use too, so a panicking simulation fails only its point. The coordinator's
// executors are in-process Workers (the default) or fleet workers, separate
// processes serving the specv1 run protocol over HTTP (see Worker), all
// appending to one shared store directory. Both answer a specv1.RunResponse,
// and runTask checks and settles every answer the same way; this package
// keeps only the policy: the queue, retries, health gating and the journal.
package sweepsvc

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/obs"
	"flexsim/internal/obs/fleettrace"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// RunFunc executes one simulation point (nil means sim.RunContext; tests
// inject stubs).
type RunFunc func(ctx context.Context, cfg sim.Config) (*stats.Result, error)

// ErrNotFound reports an unknown sweep id.
var ErrNotFound = errors.New("sweepsvc: no such sweep")

// errDraining reports a submission to a draining service.
var errDraining = errors.New("sweepsvc: service is draining")

// Config configures a Service.
type Config struct {
	// Cache is the shared content-addressed result store (required). In
	// fleet mode every worker opens the same directory; the store's
	// single-write appends keep concurrent processes safe.
	Cache *runner.Cache
	// JournalPath persists submissions and scheduler transitions for
	// idempotent restart and the fleet timeline ("" = no journal; sweeps die
	// with the process).
	JournalPath string
	// LocalWorkers is the number of in-process executors (0 = GOMAXPROCS
	// when Fleet is empty, else none).
	LocalWorkers int
	// Fleet lists HTTP worker base URLs ("http://host:port"); each gets one
	// coordinator loop.
	Fleet []string
	// MaxRetries bounds re-executions of a point after retryable failures —
	// worker death, transport errors, timeouts, isolated panics (0 = the
	// default of 2; negative = no retries).
	MaxRetries int
	// PointTimeout bounds each execution attempt (0 = unbounded).
	PointTimeout time.Duration
	// HealthEvery is the poll period when gating an unhealthy fleet worker
	// on its /healthz (0 = 250ms).
	HealthEvery time.Duration
	// Run overrides the simulation executor for in-process workers (tests).
	Run RunFunc
	// Progress, if non-nil, receives per-run counters and per-sweep states
	// for the shared /progress endpoint.
	Progress *obs.SweepProgress
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...interface{})
}

// Service is a sweep coordinator. New starts its worker loops; Submit,
// Status, Results and Subscribe may be called from any goroutine (the HTTP
// layer in this package does); Drain or Close stops it.
type Service struct {
	cfg        Config
	maxRetries int
	metrics    *obs.FleetMetrics

	ctx    context.Context
	cancel context.CancelFunc

	queue *workQueue
	wg    sync.WaitGroup

	mu      sync.Mutex
	seq     int
	sweeps  map[string]*sweep
	order   []string
	journal *jsonlog.Log
	closed  bool

	// Journal replay summary, written once in New (single-threaded) and
	// read by ReplayStatus for /healthz.
	replayedSweeps int
	replayedPoints int
	requeuedPoints int
}

// sweep is one submitted specification and its settled points.
type sweep struct {
	svc     *Service
	id      string
	name    string
	spec    *specv1.Spec
	configs []sim.Config
	keys    []string
	// started is when the sweep was submitted (on replay, its journal
	// record's time): every point's queue time.
	started time.Time
	// traceID is the sweep's fleet trace ID, minted deterministically from
	// the sweep id (so a restarted coordinator resumes the same trace).
	traceID string

	mu          sync.Mutex
	results     []*specv1.PointResult // index-aligned; nil = unsettled
	settled     int
	cached      int // settled with that status, as are failed and cancelled; the rest are done
	failed      int
	cancelled   int
	running     int
	retries     int
	stolen      int
	retryCauses map[string]int // lazily allocated on first retry
	subs        map[chan specv1.Event]struct{}
}

// New builds a Service: it replays the journal (resuming unfinished
// sweeps), then starts one loop per worker.
func New(cfg Config) (*Service, error) {
	if cfg.Cache == nil {
		return nil, errors.New("sweepsvc: Config.Cache (the shared result store) is required")
	}
	s := &Service{cfg: cfg, maxRetries: cfg.MaxRetries, sweeps: make(map[string]*sweep), queue: newWorkQueue()}
	s.metrics = obs.NewFleetMetrics(s.queue.len)
	if s.maxRetries == 0 {
		s.maxRetries = 2
	} else if s.maxRetries < 0 {
		s.maxRetries = 0
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if cfg.JournalPath != "" {
		j, err := jsonlog.Open(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("sweepsvc: journal: %w", err)
		}
		if err := s.replayJournal(j); err != nil {
			j.Close()
			return nil, err
		}
		s.journal = j
	}

	healthEvery := cfg.HealthEvery
	if healthEvery <= 0 {
		healthEvery = 250 * time.Millisecond
	}
	var execs []executor
	for _, base := range cfg.Fleet {
		execs = append(execs, newHTTPExec(strings.TrimRight(base, "/"), healthEvery))
	}
	local := cfg.LocalWorkers
	if local == 0 && len(execs) == 0 {
		local = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < local; i++ {
		// No store: settle is the one writer of an in-process result.
		execs = append(execs, &Worker{Name: fmt.Sprintf("local-%d", i+1), Run: cfg.Run})
	}
	for _, ex := range execs {
		s.wg.Add(1)
		go s.workerLoop(ex)
	}
	return s, nil
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Metrics returns the scheduler telemetry, for the shared mux:
// obs.Serve(addr, obs.WithFleet(svc.Metrics()), ...).
func (s *Service) Metrics() *obs.FleetMetrics { return s.metrics }

// Submit registers a sweep: points with a stored result settle instantly as
// cached, the rest are queued. The returned status is the post-dedupe
// snapshot.
func (s *Service) Submit(spec *specv1.Spec) (*specv1.SweepStatus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.seq++
	id := fmt.Sprintf("s%d-%s", s.seq, specHash(spec))
	sw, err := s.newSweep(id, spec)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.sweeps[id] = sw
	s.order = append(s.order, id)
	s.mu.Unlock()
	// Journaled before any point is queued, so no completion record can
	// precede its sweep record.
	s.record(sw, fleettrace.Record{Kind: "sweep", Name: spec.Name, Spec: spec})
	if s.cfg.Progress != nil {
		s.cfg.Progress.Start(id)
	}
	s.logf("sweep %s: %d point(s) submitted", id, len(sw.configs))

	for i := range sw.configs {
		if raw, ok := s.cfg.Cache.GetRaw(sw.keys[i]); ok {
			s.settle(sw, i, "", &specv1.PointResult{Status: specv1.StatusCached, Result: raw}, true)
			continue
		}
		s.queue.push(&task{sw: sw, index: i})
	}
	return s.Status(id)
}

// ReplayStatus reports what the startup journal replay restored: resumed
// sweeps, points settled from the store, points re-enqueued. All zero when
// no journal was configured or it was empty.
func (s *Service) ReplayStatus() (sweeps, settled, requeued int) {
	return s.replayedSweeps, s.replayedPoints, s.requeuedPoints
}

func (s *Service) newSweep(id string, spec *specv1.Spec) (*sweep, error) {
	configs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	sw := &sweep{
		svc: s, id: id, name: spec.Name, spec: spec, configs: configs,
		keys:    make([]string, len(configs)),
		results: make([]*specv1.PointResult, len(configs)),
		subs:    make(map[chan specv1.Event]struct{}),
		started: time.Now(),
		traceID: fleettrace.MintTraceID(id),
	}
	for i, c := range configs {
		sw.keys[i] = runner.Key(c)
	}
	return sw, nil
}

// specHash fingerprints a spec for its sweep id suffix.
func specHash(spec *specv1.Spec) string {
	b, err := jsonlog.Append(nil, spec)
	if err != nil {
		return "invalid"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4])
}

func (s *Service) lookup(id string) *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// Status returns a sweep's progress snapshot.
func (s *Service) Status(id string) (*specv1.SweepStatus, error) {
	sw := s.lookup(id)
	if sw == nil {
		return nil, ErrNotFound
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked(), nil
}

// List returns every sweep's status in submission order.
func (s *Service) List() *specv1.SweepList {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	list := &specv1.SweepList{SchemaVersion: specv1.Version, Sweeps: []specv1.SweepStatus{}}
	for _, id := range ids {
		if st, err := s.Status(id); err == nil {
			list.Sweeps = append(list.Sweeps, *st)
		}
	}
	return list
}

// Results returns the sweep's settled points in index order (unsettled
// points are absent; a done sweep yields every point).
func (s *Service) Results(id string) ([]specv1.PointResult, error) {
	sw := s.lookup(id)
	if sw == nil {
		return nil, ErrNotFound
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]specv1.PointResult, 0, sw.settled)
	for _, pr := range sw.results {
		if pr != nil {
			out = append(out, *pr)
		}
	}
	return out, nil
}

// Subscribe streams a sweep's events: a "point" and a "progress" event per
// settling point, then one terminal "done" event, after which the channel
// closes (closure is the authoritative end-of-stream signal: a slow
// subscriber may have intermediate — or, at the extreme, the done — event
// dropped rather than block the sweep). Subscribing to an already-settled
// sweep yields the done event immediately. The returned cancel function
// must be called when done.
func (s *Service) Subscribe(id string) (<-chan specv1.Event, func(), error) {
	sw := s.lookup(id)
	if sw == nil {
		return nil, nil, ErrNotFound
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ch := make(chan specv1.Event, 64)
	if sw.settled == len(sw.configs) {
		ch <- specv1.Event{Type: "done", Sweep: sw.id, Stat: sw.statusLocked()}
		close(ch)
		return ch, func() {}, nil
	}
	sw.subs[ch] = struct{}{}
	cancel := func() {
		sw.mu.Lock()
		if _, ok := sw.subs[ch]; ok {
			delete(sw.subs, ch)
			close(ch)
		}
		sw.mu.Unlock()
	}
	return ch, cancel, nil
}

// Drain stops the service gracefully: new submissions are refused, queued
// points are dropped (the journal resumes them on restart), and in-flight
// points get grace to finish before being cancelled. A non-positive grace
// cancels immediately.
func (s *Service) Drain(grace time.Duration) {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.queue.close()
	if grace <= 0 {
		s.cancel()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var expired <-chan time.Time
	if grace > 0 {
		tm := time.NewTimer(grace)
		defer tm.Stop()
		expired = tm.C
	}
	select {
	case <-done:
	case <-expired:
		s.logf("drain: grace %v expired; cancelling in-flight points", grace)
		s.cancel()
		<-done
	}
	s.cancel()
	s.finishShutdown()
}

// Close stops the service immediately (Drain without grace).
func (s *Service) Close() { s.Drain(0) }

func (s *Service) finishShutdown() {
	s.mu.Lock()
	sweeps := make([]*sweep, 0, len(s.order))
	for _, id := range s.order {
		sweeps = append(sweeps, s.sweeps[id])
	}
	j := s.journal
	s.journal = nil
	s.mu.Unlock()
	for _, sw := range sweeps {
		sw.mu.Lock()
		for ch := range sw.subs {
			delete(sw.subs, ch)
			close(ch)
		}
		sw.mu.Unlock()
	}
	if j != nil {
		if err := j.Close(); err != nil {
			s.logf("journal close: %v", err)
		}
	}
}

// workerLoop pulls points for one executor until the queue closes. After a
// retryable failure the point is requeued at the front — so another worker
// picks it up next — and this loop gates on the executor's health before
// pulling more work.
func (s *Service) workerLoop(ex executor) {
	defer s.wg.Done()
	for {
		t, ok := s.queue.pop()
		if !ok {
			return
		}
		if retry, cause := s.runTask(ex, t); retry {
			s.logf("worker %s: point %s[%d] requeued (%s, attempt %d); gating on health", ex.name(), t.sw.id, t.index, cause, t.attempts)
			s.queue.pushFront(t) // t belongs to the next worker from here on
			ex.await(s.ctx)
		}
	}
}

// runTask executes one point on ex, settling it unless it should retry
// elsewhere (returns true with the failure cause: caller requeues) or the
// service is shutting down mid-run (the journal resumes it).
func (s *Service) runTask(ex executor, t *task) (retry bool, cause string) {
	sw, i := t.sw, t.index
	if sw.isSettled(i) {
		return false, ""
	}
	// Another sweep — or another worker's retry — may have completed this
	// configuration since it was queued: the shared store is the authority.
	if raw, ok := s.cfg.Cache.GetRaw(sw.keys[i]); ok {
		s.settle(sw, i, "", &specv1.PointResult{Status: specv1.StatusCached, Attempts: t.attempts, Result: raw}, true)
		return false, ""
	}

	t.attempts++
	worker := ex.name()
	if t.lastWorker != "" && t.lastWorker != worker {
		// A retried point landed on a different worker than its previous
		// attempt: a steal, in the pull-queue sense.
		s.record(sw, fleettrace.Record{Kind: "event", State: "steal", Point: i, Attempt: t.attempts, Worker: worker, Cause: t.lastWorker})
	}
	t.lastWorker = worker
	sw.markRunning(+1)
	s.record(sw, fleettrace.Record{Kind: "attempt", State: "running", Point: i, Attempt: t.attempts, Worker: worker})
	ctx, cancel := s.ctx, context.CancelFunc(func() {})
	if s.cfg.PointTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.PointTimeout)
	}
	point := sw.configs[i]
	point.TraceContext = fleettrace.AttemptContext(sw.traceID, i, t.attempts).Traceparent()
	resp, err := ex.run(ctx, point)
	switch { // the one check of an answer, whichever executor gave it
	case err != nil, resp.Status == specv1.StatusFailed:
	case resp.Status != specv1.StatusDone && resp.Status != specv1.StatusCached:
		err = &attemptError{causeProtocol, fmt.Errorf("worker %s: unexpected status %q", worker, resp.Status)}
	case len(resp.Result) == 0 || resp.Result[0] != '{': // null, say: settle would store it as a result
		err = &attemptError{causeProtocol, fmt.Errorf("worker %s: %s without a result object", worker, resp.Status)}
	}
	deadline, bounded := ctx.Deadline()
	timedOut := bounded && !time.Now().Before(deadline) // ctx.Err() may lag its timer
	cancel()
	sw.markRunning(-1)

	if err != nil {
		if s.ctx.Err() != nil {
			return false, "" // shutting down; leave unsettled for the journal
		}
		// Whatever the executor made of it, an attempt that ran out its
		// time is a timeout, and so is an executor's own context error.
		cause := causeTimeout
		var ae *attemptError
		if !timedOut && errors.As(err, &ae) {
			cause = ae.cause
		}
		if t.attempts <= s.maxRetries {
			s.record(sw, fleettrace.Record{Kind: "attempt", State: "retry", Point: i, Attempt: t.attempts,
				Worker: worker, Cause: cause, Error: err.Error()})
			return true, cause
		}
		resp = &specv1.RunResponse{Status: specv1.StatusFailed, Error: fmt.Sprintf("%v (after %d attempt(s))", err, t.attempts)}
	}
	pr := &specv1.PointResult{Status: resp.Status, Worker: cmp.Or(resp.Worker, worker), Attempts: t.attempts, Result: resp.Result}
	if resp.Status == specv1.StatusFailed {
		pr.Result, pr.Error = nil, cmp.Or(resp.Error, "run failed")
	}
	s.settle(sw, i, worker, pr, resp.Persisted)
	return false, ""
}

// settle finalizes one point: persists (or adopts) its result bytes in the
// shared store, records the terminal transition, feeds the progress
// counters, and notifies subscribers — emitting the terminal done event when
// the sweep's last point settles. worker names the executor whose attempt
// this ends ("" for a point served from the store); adopted marks result
// bytes already present in the store (a cache hit, or a fleet worker that
// persisted before responding).
func (s *Service) settle(sw *sweep, index int, worker string, pr *specv1.PointResult, adopted bool) {
	pr.SchemaVersion = specv1.Version
	pr.Index = index
	pr.Load = sw.configs[index].Load
	pr.Key = sw.keys[index]
	pr.Trace = fleettrace.PointContext(sw.traceID, index).Traceparent()
	if len(pr.Result) > 0 && (pr.Status == specv1.StatusDone || pr.Status == specv1.StatusCached) {
		if adopted {
			s.cfg.Cache.AdoptRaw(pr.Key, pr.Result)
		} else if err := s.cfg.Cache.PutRaw(pr.Key, sw.configs[index].Label, pr.Load, pr.Result); err != nil {
			s.logf("%v", err)
		}
	}
	s.record(sw, fleettrace.Record{Kind: "point", State: string(pr.Status), Point: index,
		Attempt: pr.Attempts, Worker: worker, Error: pr.Error})
	if p := s.cfg.Progress; p != nil {
		switch pr.Status {
		case specv1.StatusCached:
			p.RunCached()
		case specv1.StatusFailed:
			p.RunFailed()
		case specv1.StatusCancelled:
			p.RunCancelled()
		default:
			p.RunDone()
		}
	}
	sw.finish(pr)
}

// finish records a settled point and notifies subscribers.
func (sw *sweep) finish(pr *specv1.PointResult) {
	sw.mu.Lock()
	if sw.results[pr.Index] != nil {
		sw.mu.Unlock()
		return
	}
	sw.recordLocked(pr)
	st := sw.statusLocked()
	pev := *pr
	pev.Result = nil // point events carry metadata; payloads come from /results
	sw.broadcastLocked(specv1.Event{Type: "point", Sweep: sw.id, Point: &pev})
	sw.broadcastLocked(specv1.Event{Type: "progress", Sweep: sw.id, Stat: st})
	done := sw.settled == len(sw.configs)
	if done {
		sw.broadcastLocked(specv1.Event{Type: "done", Sweep: sw.id, Stat: st})
		for ch := range sw.subs {
			delete(sw.subs, ch)
			close(ch)
		}
	}
	sw.mu.Unlock()
	if done {
		sw.svc.logf("sweep %s: done (%d done, %d cached, %d failed, %d retries)",
			sw.id, st.Done, st.Cached, st.Failed, st.Retries)
		if p := sw.svc.cfg.Progress; p != nil {
			p.Finish(sw.id, time.Since(sw.started))
		}
	}
}

// recordLocked stores a point that has reached its final state and counts
// it: live settles and the journal replay both come through here.
func (sw *sweep) recordLocked(pr *specv1.PointResult) {
	sw.results[pr.Index] = pr
	sw.settled++
	switch pr.Status {
	case specv1.StatusCached:
		sw.cached++
	case specv1.StatusFailed:
		sw.failed++
	case specv1.StatusCancelled:
		sw.cancelled++
	}
}

// broadcastLocked sends an event to every subscriber without blocking: a
// subscriber that has fallen 64 events behind misses it (channel closure is
// the terminal signal).
func (sw *sweep) broadcastLocked(ev specv1.Event) {
	for ch := range sw.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (sw *sweep) statusLocked() *specv1.SweepStatus {
	st := &specv1.SweepStatus{
		SchemaVersion: specv1.Version, ID: sw.id, Name: sw.name,
		State: specv1.SweepRunning, Total: len(sw.configs),
		Done:   sw.settled - sw.cached - sw.failed - sw.cancelled,
		Cached: sw.cached, Failed: sw.failed, Cancelled: sw.cancelled,
		Running: sw.running, Retries: sw.retries, Stolen: sw.stolen,
	}
	if len(sw.retryCauses) > 0 {
		st.RetryCauses = make(map[string]int, len(sw.retryCauses))
		for c, n := range sw.retryCauses {
			st.RetryCauses[c] = n
		}
	}
	st.Pending = st.Total - st.Settled() - st.Running
	if st.Settled() == st.Total {
		st.State = specv1.SweepDone
	}
	return st
}

func (sw *sweep) isSettled(i int) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.results[i] != nil
}

func (sw *sweep) markRunning(delta int) {
	sw.mu.Lock()
	sw.running += delta
	sw.mu.Unlock()
}

// retryOrSteal counts a retry or steal record on the sweep and broadcasts it
// to subscribers as a non-terminal event of the same name.
func (sw *sweep) retryOrSteal(rec fleettrace.Record) {
	ev := specv1.Event{Type: rec.State, Sweep: sw.id, Cause: rec.Cause,
		Trace: fleettrace.AttemptContext(sw.traceID, rec.Point, rec.Attempt).Traceparent(),
		Point: &specv1.PointResult{
			SchemaVersion: specv1.Version, Index: rec.Point, Load: sw.configs[rec.Point].Load,
			Status: specv1.StatusRetrying, Worker: rec.Worker, Attempts: rec.Attempt,
		}}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if rec.State == "steal" {
		sw.stolen++
	} else {
		sw.retries++
		if sw.retryCauses == nil {
			sw.retryCauses = make(map[string]int)
		}
		sw.retryCauses[rec.Cause]++
	}
	sw.broadcastLocked(ev)
}

// task is one queued point execution.
type task struct {
	sw       *sweep
	index    int
	attempts int // executions so far
	// lastWorker names the worker the previous attempt ran on ("" before
	// the first); a different worker on the next attempt is a steal.
	lastWorker string
}

// workQueue is the shared pull queue: push appends, pushFront prioritizes a
// retry, pop blocks until work or closure. Closing drops queued tasks (the
// journal re-derives them).
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*task
	closed bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workQueue) push(t *task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, t)
	q.cond.Signal()
}

func (q *workQueue) pushFront(t *task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append([]*task{t}, q.items...)
	q.cond.Signal()
}

func (q *workQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *workQueue) pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	t := q.items[0]
	q.items = q.items[1:]
	return t, true
}

func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}
