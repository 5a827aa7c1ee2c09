package sweepsvc

// The coordinator's versioned HTTP API and the fleet worker's run endpoint.
// Both mount on the shared obs mux (obs.WithHandler), so every process in
// the fleet also serves the identical /metrics, /healthz and /progress.
//
// Coordinator (sweepd):
//
//	POST /api/v1/sweeps            submit a specv1.Spec       -> 201 SweepStatus
//	GET  /api/v1/sweeps            list sweeps                -> SweepList
//	GET  /api/v1/sweeps/{id}       one sweep's progress       -> SweepStatus
//	GET  /api/v1/sweeps/{id}/results  settled points          -> PointResult JSONL
//	GET  /api/v1/sweeps/{id}/events   live progress           -> SSE stream of Event
//
// Worker (sweepd -worker):
//
//	POST /api/v1/run               execute one point          -> RunResponse

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
)

// A request body is bounded before its decoder, which buffers to EOF, sees
// it. The largest spec the benchmark posts is ~3 MiB (2 000 explicit
// points); a run request is one point.
const (
	maxSpecBytes       = 64 << 20
	maxRunRequestBytes = 8 << 20
)

// decodeBody decodes r's body, or answers for it and returns nil: 413 for a
// body that declares more than max bytes (refused unread) or runs past max,
// 400 for one that does not decode.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, max int64, decode func(io.Reader) (*T, error)) *T {
	if r.ContentLength > max {
		http.Error(w, fmt.Sprintf("request body of %d bytes is over the %d-byte bound", r.ContentLength, max), http.StatusRequestEntityTooLarge)
		return nil
	}
	v, err := decode(http.MaxBytesReader(w, r.Body, max))
	if err == nil {
		return v
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), code)
	return nil
}

// writeJSON answers with v's encoding and a newline — json.Encoder's bytes,
// by jsonlog's writer, which copies a result payload instead of recompacting
// it. A value that does not encode leaves the body empty, which a coordinator
// takes for a torn response and retries.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if body, err := jsonlog.Append(make([]byte, 0, 4096), v); err == nil {
		w.Write(append(body, '\n'))
	}
}

// APIHandler returns the coordinator's HTTP API, for mounting on the shared
// mux: obs.Serve(addr, obs.WithHandler("/api/v1/", svc.APIHandler()), ...).
func (s *Service) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", s.handleEvents)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec := decodeBody(w, r, maxSpecBytes, specv1.DecodeSpec)
	if spec == nil {
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errDraining) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	results, err := s.Results(r.PathValue("id"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	specv1.WriteResults(w, results)
}

// handleEvents streams a sweep's events as server-sent events until the
// terminal done event (or client disconnect). Many clients may watch one
// sweep concurrently; each has its own subscription.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := jsonlog.Append(nil, &ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// Worker executes points for a coordinator: one HTTP endpoint speaking the
// specv1 run protocol. With a Cache attached (the shared store directory),
// the worker serves already-persisted configurations without running them
// and persists its completions before responding, so the coordinator adopts
// the bytes instead of re-appending. A Worker with no Cache is also the
// coordinator's in-process executor.
type Worker struct {
	// Name identifies this worker in results (its listen address, usually).
	Name string
	// Cache is this worker's handle on the shared store (optional).
	Cache *runner.Cache
	// Run overrides the simulation executor (tests; nil = sim.RunContext).
	Run RunFunc
	// SpansPath, when nonempty, has every executed run write its own
	// Perfetto timeline there (sim.Config.SpansPath semantics: "*" expands
	// per run), stamped with the coordinator's trace context so per-run
	// artifacts join the fleet timeline.
	SpansPath string

	executions atomic.Int64
}

// Executions counts the simulations this worker actually ran (cache-served
// requests excluded).
func (wk *Worker) Executions() int64 { return wk.executions.Load() }

// Handler returns the worker's API, for mounting on the shared mux.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/run", wk.handleRun)
	return mux
}

func (wk *Worker) name() string          { return wk.Name }
func (wk *Worker) await(context.Context) {}

// run answers one point through the runner's life cycle. A point the store
// holds — served from it, or run and appended — answers Persisted; a done
// point the store did not take carries its bytes for the coordinator to put,
// and a failed one its error. An isolated panic is a failed attempt with
// cause panic, and a cancelled point returns its context's error.
func (wk *Worker) run(ctx context.Context, cfg sim.Config) (*specv1.RunResponse, error) {
	if wk.Cache != nil {
		// Another fleet process may have appended this configuration since
		// our last look; the incremental Reload is cheap, and if it fails
		// the index already held still serves.
		_ = wk.Cache.Reload()
	}
	p := runner.Map(ctx, []sim.Config{cfg}, runner.Options{Parallelism: 1, Cache: wk.Cache, Run: wk.Run})[0]
	if p.Status != runner.Cached {
		wk.executions.Add(1)
	}
	var pe *runner.PanicError
	switch {
	case p.Status == runner.Cancelled:
		return nil, p.Err
	case errors.As(p.Err, &pe):
		return nil, &attemptError{causePanic, p.Err}
	}
	resp := &specv1.RunResponse{SchemaVersion: specv1.Version, Status: specv1.Status(p.Status), Worker: wk.Name, Persisted: p.Raw != nil, Result: p.Raw}
	if p.Err != nil {
		resp.Error = p.Err.Error()
	} else if p.Raw == nil {
		var err error
		if resp.Result, err = specv1.EncodeResult(p.Result); err != nil {
			resp.Status, resp.Error = specv1.StatusFailed, err.Error()
		}
	}
	return resp, nil
}

func (wk *Worker) handleRun(w http.ResponseWriter, r *http.Request) {
	req := decodeBody(w, r, maxRunRequestBytes, specv1.DecodeRunRequest)
	if req == nil {
		return
	}
	point := req.Config.ToSim()
	// Observability only: the cache key hashes the Spec, which holds
	// neither, so tracing cannot perturb dedupe.
	point.TraceContext = req.Trace
	point.SpansPath = wk.SpansPath
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resp, err := wk.run(ctx, point)
	var ae *attemptError
	switch {
	case errors.As(err, &ae):
		// A recovered panic is retried, as an in-process one is: 500 marks
		// it retryable.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case err != nil:
		// Timed out or the coordinator went away: 503 marks it retryable.
		http.Error(w, fmt.Sprintf("run cancelled: %v", err), http.StatusServiceUnavailable)
	default:
		resp.Trace = req.Trace
		writeJSON(w, http.StatusOK, resp)
	}
}
