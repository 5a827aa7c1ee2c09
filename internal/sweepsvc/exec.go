package sweepsvc

// Executors run single points for the coordinator. localExec wraps the same
// resilient runner the CLIs use (panic isolation, cancellation within one
// detector period); httpExec speaks the specv1 run protocol to a fleet
// worker process and classifies transport-level failures as retryable so
// the coordinator re-executes the point elsewhere.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
)

// execResult is one execution attempt's outcome.
type execResult struct {
	status specv1.Status
	raw    json.RawMessage // canonical result bytes (done/cached)
	err    error
	worker string
	// persisted: the result bytes are already in the shared store (the
	// worker appended them); the coordinator adopts instead of re-appending.
	persisted bool
	// retryable: the failure is attributable to the executor (worker death,
	// transport error, isolated panic) — re-run the point elsewhere.
	retryable bool
	// cause classifies a retryable failure for telemetry: "worker-death"
	// (connection refused/reset, torn response), "5xx", "panic", "protocol"
	// (an unrecognized wire status, or a result that is not an object). The
	// coordinator adds "timeout" itself when the per-point deadline fires.
	cause string
}

// Retry causes, as tagged on retry events, span-log records and the
// flexsweep_retries_total{cause=...} counter.
const (
	causeWorkerDeath = "worker-death"
	cause5xx         = "5xx"
	causePanic       = "panic"
	causeTimeout     = "timeout"
	causeProtocol    = "protocol"
)

// executor runs points and reports its health.
type executor interface {
	name() string
	run(ctx context.Context, cfg sim.Config) execResult
	// await blocks until the executor is healthy again (or ctx ends) after
	// a retryable failure, keeping a dead worker from draining the queue.
	await(ctx context.Context)
}

// localExec runs points in-process through the resilient runner.
type localExec struct {
	id    string
	runFn RunFunc
}

func (e *localExec) name() string          { return e.id }
func (e *localExec) await(context.Context) {}
func (e *localExec) run(ctx context.Context, cfg sim.Config) execResult {
	p := runner.Map(ctx, []sim.Config{cfg}, runner.Options{Parallelism: 1, Run: e.runFn})[0]
	switch p.Status {
	case runner.Done:
		raw, err := specv1.EncodeResult(p.Result)
		if err != nil {
			return execResult{status: specv1.StatusFailed, err: err, worker: e.id}
		}
		return execResult{status: specv1.StatusDone, raw: raw, worker: e.id}
	case runner.Cancelled:
		return execResult{status: specv1.StatusCancelled, err: p.Err, worker: e.id}
	default:
		// An executor that surfaces its context's cancellation as a plain
		// error still cancelled, it didn't fail.
		if ctx.Err() != nil && errors.Is(p.Err, ctx.Err()) {
			return execResult{status: specv1.StatusCancelled, err: p.Err, worker: e.id}
		}
		// An isolated panic mirrors a crashed fleet worker: retry the point.
		var pe *runner.PanicError
		r := execResult{status: specv1.StatusFailed, err: p.Err, worker: e.id, retryable: errors.As(p.Err, &pe)}
		if r.retryable {
			r.cause = causePanic
		}
		return r
	}
}

// httpExec runs points on one fleet worker over HTTP.
type httpExec struct {
	base        string
	client      *http.Client
	healthEvery time.Duration
}

func newHTTPExec(base string, healthEvery time.Duration) *httpExec {
	return &httpExec{base: base, client: &http.Client{}, healthEvery: healthEvery}
}

func (e *httpExec) name() string { return e.base }

func (e *httpExec) run(ctx context.Context, point sim.Config) execResult {
	req := specv1.RunRequest{SchemaVersion: specv1.Version, Config: specv1.FromSim(point), Trace: point.TraceContext}
	if deadline, ok := ctx.Deadline(); ok {
		req.TimeoutMS = time.Until(deadline).Milliseconds()
	}
	body, err := jsonlog.Append(make([]byte, 0, 1024), &req)
	if err != nil {
		return execResult{status: specv1.StatusFailed, err: err, worker: e.base}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/api/v1/run", bytes.NewReader(body))
	if err != nil {
		return execResult{status: specv1.StatusFailed, err: err, worker: e.base}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return execResult{status: specv1.StatusCancelled, err: ctx.Err(), worker: e.base}
		}
		// Connection refused/reset: the worker process is gone or restarting.
		return execResult{status: specv1.StatusFailed, err: fmt.Errorf("worker %s: %w", e.base, err), worker: e.base, retryable: true, cause: causeWorkerDeath}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("worker %s: HTTP %d: %s", e.base, resp.StatusCode, bytes.TrimSpace(msg))
		// 5xx: the worker refused or aborted the run; 4xx is a protocol bug
		// that re-running elsewhere would repeat.
		r := execResult{status: specv1.StatusFailed, err: err, worker: e.base, retryable: resp.StatusCode >= 500}
		if r.retryable {
			r.cause = cause5xx
		}
		return r
	}
	wr, err := specv1.DecodeRunResponse(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return execResult{status: specv1.StatusCancelled, err: ctx.Err(), worker: e.base}
		}
		// A torn response body (worker killed mid-write) surfaces here.
		return execResult{status: specv1.StatusFailed, err: fmt.Errorf("worker %s: %w", e.base, err), worker: e.base, retryable: true, cause: causeWorkerDeath}
	}
	worker := wr.Worker
	if worker == "" {
		worker = e.base
	}
	switch wr.Status {
	case specv1.StatusFailed:
		return execResult{status: specv1.StatusFailed, err: errors.New(wr.Error), worker: worker}
	case specv1.StatusDone, specv1.StatusCached:
		if len(wr.Result) == 0 || wr.Result[0] != '{' { // null, say: settle would store it as a result
			return execResult{status: specv1.StatusFailed, err: fmt.Errorf("worker %s: %s without a result object", e.base, wr.Status), worker: worker, retryable: true, cause: causeProtocol}
		}
		return execResult{status: wr.Status, raw: wr.Result, worker: worker, persisted: wr.Persisted}
	default:
		return execResult{status: specv1.StatusFailed, err: fmt.Errorf("worker %s: unexpected status %q", e.base, wr.Status), worker: worker, retryable: true, cause: causeProtocol}
	}
}

// await polls the worker's /healthz until it answers 200 again.
func (e *httpExec) await(ctx context.Context) {
	tick := time.NewTicker(e.healthEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if e.healthy(ctx) {
			return
		}
	}
}

func (e *httpExec) healthy(ctx context.Context) bool {
	hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, e.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
