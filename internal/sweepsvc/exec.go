package sweepsvc

// Executors run single points for the coordinator. The in-process one is a
// Worker with no store, whose run is the same one-point runner call a fleet
// worker's handler makes; httpExec speaks the specv1 run protocol to a fleet
// worker process. Either answers a specv1.RunResponse, which runTask checks
// and settles, or an error: the attempt failed and is retried elsewhere.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/sim"
)

// Retry causes, as tagged on retry events, span-log records and the
// flexsweep_retries_total{cause=...} counter.
const (
	causeWorkerDeath = "worker-death"
	cause5xx         = "5xx"
	causePanic       = "panic"
	causeTimeout     = "timeout"
	causeProtocol    = "protocol"
)

// attemptError is a failed attempt with its retry cause: "worker-death"
// (connection refused or reset, a torn response), "5xx", "panic" or
// "protocol" (an unrecognized status, or a result that is not an object).
// An executor's other errors are its context's; runTask labels those, and
// any failed attempt whose deadline has passed, "timeout".
type attemptError struct {
	cause string
	err   error
}

func (e *attemptError) Error() string { return e.err.Error() }

// executor runs points and reports its health.
type executor interface {
	name() string
	// run answers a point: done, cached or failed. A non-nil error means
	// the attempt failed and the point may be retried.
	run(ctx context.Context, cfg sim.Config) (*specv1.RunResponse, error)
	// await blocks until the executor is healthy again (or ctx ends) after
	// a failed attempt, keeping a dead worker from draining the queue.
	await(ctx context.Context)
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

func (e *httpExec) run(ctx context.Context, point sim.Config) (*specv1.RunResponse, error) {
	req := specv1.RunRequest{SchemaVersion: specv1.Version, Config: specv1.FromSim(point), Trace: point.TraceContext}
	if deadline, ok := ctx.Deadline(); ok {
		// Rounded up, so that the worker's deadline falls after ours: a
		// point that runs out its time is a timeout here, not the worker's
		// 503.
		req.TimeoutMS = (time.Until(deadline) + time.Millisecond - 1).Milliseconds()
	}
	body, err := jsonlog.Append(make([]byte, 0, 1024), &req)
	if err != nil {
		return e.failed(err), nil
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/api/v1/run", bytes.NewReader(body))
	if err != nil {
		return e.failed(err), nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Connection refused/reset: the worker process is gone or restarting.
		return nil, &attemptError{causeWorkerDeath, fmt.Errorf("worker %s: %w", e.base, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("worker %s: HTTP %d: %s", e.base, resp.StatusCode, bytes.TrimSpace(msg))
		// 5xx: the worker refused or aborted the run; 4xx is a protocol bug
		// that re-running elsewhere would repeat.
		if resp.StatusCode >= 500 {
			return nil, &attemptError{cause5xx, err}
		}
		return e.failed(err), nil
	}
	wr, err := specv1.DecodeRunResponse(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// A torn response body (worker killed mid-write) surfaces here.
		return nil, &attemptError{causeWorkerDeath, fmt.Errorf("worker %s: %w", e.base, err)}
	}
	return wr, nil
}

// failed answers a point that failed for good: re-running it elsewhere
// would fail the same way.
func (e *httpExec) failed(err error) *specv1.RunResponse {
	return &specv1.RunResponse{SchemaVersion: specv1.Version, Status: specv1.StatusFailed, Worker: e.base, Error: err.Error()}
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
