package specv1

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"flexsim/internal/jsonlog"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Status classifies how a sweep point settled: runner.Status on the wire,
// the same four strings, so Status(p.Status) converts a runner.Point's.
type Status string

// Point statuses.
const (
	// StatusDone: the point executed to completion.
	StatusDone Status = "done"
	// StatusCached: the result was served from the shared store.
	StatusCached Status = "cached"
	// StatusFailed: the run errored or panicked (Error carries the cause).
	StatusFailed Status = "failed"
	// StatusCancelled: the run was interrupted or never started.
	StatusCancelled Status = "cancelled"
	// StatusRetrying: a non-terminal event-stream-only status — the point's
	// attempt failed retryably and the point is back in the queue. Never
	// appears in stored or listed results.
	StatusRetrying Status = "retrying"
)

// PointResult is one settled sweep point. Result holds the simulator's
// canonical stats.Result encoding (see EncodeResult); it is carried as raw
// bytes so that a result can travel store → coordinator → client without a
// re-encode, keeping fleet and local runs byte-comparable.
type PointResult struct {
	SchemaVersion int     `json:"schema_version"`
	Index         int     `json:"index"`
	Load          float64 `json:"load"`
	Status        Status  `json:"status"`
	// Key is the point's content address in the shared store.
	Key string `json:"key,omitempty"`
	// Worker names the fleet worker that executed the point ("" for
	// cache-served and locally executed points).
	Worker string `json:"worker,omitempty"`
	// Attempts counts executions scheduled for this point (> 1 after a
	// retry on worker death).
	Attempts int `json:"attempts,omitempty"`
	// Trace is the point's fleet trace context in W3C traceparent form
	// (root span of the point; "" when fleet tracing is off).
	Trace  string          `json:"trace,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// PointResults converts settled sweep points into their wire form, keyed by
// each configuration's content address. A point that carries the Key and
// Raw runner.Map gave it (any sweep run with a cache) is reported with
// exactly those — the store's own bytes, so a cached point costs nothing
// here and local and service results stay byte-identical. A point built
// without them (a cacheless sweep, a hand-assembled Point) is keyed and
// encoded canonically instead.
func PointResults(configs []sim.Config, points []runner.Point) ([]PointResult, error) {
	if len(configs) != len(points) {
		return nil, fmt.Errorf("specv1: %d configs for %d points", len(configs), len(points))
	}
	out := make([]PointResult, len(points))
	for i, p := range points {
		pr := PointResult{
			SchemaVersion: Version,
			Index:         i,
			Load:          p.Load,
			Status:        Status(p.Status),
			Key:           p.Key,
			Result:        p.Raw,
		}
		if pr.Key == "" {
			pr.Key = runner.Key(configs[i])
		}
		if p.Err != nil {
			pr.Error = p.Err.Error()
		}
		if pr.Result == nil {
			raw, err := EncodeResult(p.Result)
			if err != nil {
				return nil, err
			}
			pr.Result = raw
		}
		out[i] = pr
	}
	return out, nil
}

// EncodeResult produces the canonical wire encoding of a simulation result:
// plain JSON of stats.Result, the same bytes the content-addressed store
// persists. Returns nil for a nil result.
func EncodeResult(res *stats.Result) (json.RawMessage, error) {
	if res == nil {
		return nil, nil
	}
	raw, err := stats.EncodeResult(res)
	if err != nil {
		return nil, fmt.Errorf("specv1: encode result: %w", err)
	}
	return raw, nil
}

// DecodeResult decodes a canonical result payload.
func DecodeResult(raw json.RawMessage) (*stats.Result, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var res stats.Result
	if err := jsonlog.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("specv1: decode result: %w", err)
	}
	return &res, nil
}

// WriteResults writes point results as JSONL, one PointResult per line —
// the format of sweepd's results endpoint and charsweep's -results-out.
func WriteResults(w io.Writer, results []PointResult) error {
	// Buffered: one write per 64 KiB, not one per ~2 KB line.
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for i := range results {
		var err error
		if line, err = jsonlog.Append(line[:0], &results[i]); err == nil {
			line = append(line, '\n')
			_, err = bw.Write(line)
		}
		if err != nil {
			return fmt.Errorf("specv1: write results: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("specv1: write results: %w", err)
	}
	return nil
}

// ReadResults strictly decodes a JSONL stream of point results to its end:
// anything else in it is an error, not a shorter slice. Payloads alias one buffer.
func ReadResults(r io.Reader) ([]PointResult, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("specv1: read results: %w", err)
	}
	var out []PointResult
	for rest := bytes.TrimLeft(data, space); len(rest) > 0; rest = bytes.TrimLeft(rest, space) {
		out = append(out, PointResult{})
		pr := &out[len(out)-1]
		n, err := decodeValue(rest, pr)
		if err != nil {
			return nil, fmt.Errorf("specv1: read results: after %d results: %w", len(out)-1, err)
		}
		if pr.SchemaVersion != Version {
			return nil, fmt.Errorf("specv1: result schema_version %d, want %d", pr.SchemaVersion, Version)
		}
		rest = rest[n:]
	}
	return out, nil
}

// RunRequest asks a fleet worker to execute one point.
type RunRequest struct {
	SchemaVersion int         `json:"schema_version"`
	Config        PointConfig `json:"config"`
	// TimeoutMS bounds the run on the worker side (0 = the coordinator's
	// HTTP context is the only bound).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace is the attempt's span context in W3C traceparent form, minted
	// by the coordinator ("" when fleet tracing is off). Observability
	// only: it never changes what the worker computes or the result key.
	Trace string `json:"trace,omitempty"`
}

// DecodeRunRequest strictly decodes a worker run request.
func DecodeRunRequest(r io.Reader) (*RunRequest, error) {
	return decodeStrict(r, "run request", func(m *RunRequest) int { return m.SchemaVersion })
}

// RunResponse is a fleet worker's answer to a RunRequest.
type RunResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Status        Status `json:"status"`
	// Worker echoes the worker's name (its listen address by default).
	Worker string `json:"worker,omitempty"`
	// Persisted reports that the worker already appended the result to the
	// shared store, so the coordinator must not append it again.
	Persisted bool `json:"persisted,omitempty"`
	// Trace echoes the request's trace context, confirming which span the
	// worker stamped into its artifacts.
	Trace  string          `json:"trace,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// DecodeRunResponse strictly decodes a worker run response.
func DecodeRunResponse(r io.Reader) (*RunResponse, error) {
	resp, err := decodeStrict(r, "run response", func(m *RunResponse) int { return m.SchemaVersion })
	if err == nil {
		resp.Result = bytes.Clone(resp.Result) // a coordinator keeps it: without the read buffer it aliases
	}
	return resp, err
}

// SweepState is a sweep's lifecycle state on the coordinator.
type SweepState string

// Sweep states.
const (
	// SweepRunning: points are pending or in flight (a drained/restarted
	// coordinator resumes such sweeps from the journal).
	SweepRunning SweepState = "running"
	// SweepDone: every point settled.
	SweepDone SweepState = "done"
)

// SweepStatus summarizes one sweep's progress.
type SweepStatus struct {
	SchemaVersion int        `json:"schema_version"`
	ID            string     `json:"id"`
	Name          string     `json:"name,omitempty"`
	State         SweepState `json:"state"`
	Total         int        `json:"points_total"`
	Done          int        `json:"points_done"`
	Cached        int        `json:"points_cached"`
	Failed        int        `json:"points_failed"`
	Cancelled     int        `json:"points_cancelled"`
	Running       int        `json:"points_running"`
	Pending       int        `json:"points_pending"`
	// Retries counts point re-executions after worker failures.
	Retries int `json:"retries,omitempty"`
	// Stolen counts retried points picked up by a different worker than
	// their previous attempt ran on.
	Stolen int `json:"stolen,omitempty"`
	// RetryCauses breaks Retries down by failure cause (worker-death, 5xx,
	// panic, timeout).
	RetryCauses map[string]int `json:"retry_causes,omitempty"`
}

// Settled returns the number of points that reached a final state.
func (s *SweepStatus) Settled() int { return s.Done + s.Cached + s.Failed + s.Cancelled }

// DecodeStatus strictly decodes a sweep status.
func DecodeStatus(r io.Reader) (*SweepStatus, error) {
	return decodeStrict(r, "sweep status", func(m *SweepStatus) int { return m.SchemaVersion })
}

// SweepList is the coordinator's sweep index.
type SweepList struct {
	SchemaVersion int           `json:"schema_version"`
	Sweeps        []SweepStatus `json:"sweeps"`
}

// DecodeList strictly decodes a sweep index and the statuses in it.
func DecodeList(r io.Reader) (*SweepList, error) {
	list, err := decodeStrict(r, "sweep list", func(m *SweepList) int { return m.SchemaVersion })
	for i := 0; err == nil && i < len(list.Sweeps); i++ {
		if v := list.Sweeps[i].SchemaVersion; v != Version {
			return nil, fmt.Errorf("specv1: sweep status schema_version %d, want %d", v, Version)
		}
	}
	return list, err
}

// Event is one server-sent event on a sweep's event stream.
type Event struct {
	// Type is "point" (one point settled; Point is set, without its result
	// payload), "retry" (an attempt failed retryably; Point carries status
	// "retrying" and Cause the failure class), "steal" (a retried point was
	// picked up by a different worker; Cause names the previous worker),
	// "progress" (Status is set), or "done" (final Status; the stream ends
	// after it).
	Type  string       `json:"type"`
	Sweep string       `json:"sweep"`
	Point *PointResult `json:"point,omitempty"`
	Stat  *SweepStatus `json:"status,omitempty"`
	// Cause tags retry and steal events: the failure class (worker-death,
	// 5xx, panic, timeout) for retries, the previous worker for steals.
	Cause string `json:"cause,omitempty"`
	// Trace is the affected attempt's span context in traceparent form.
	Trace string `json:"trace,omitempty"`
}

// DecodeEvent strictly decodes one event payload.
func DecodeEvent(data []byte) (*Event, error) {
	return decodeStrict[Event](bytes.NewReader(data), "event", nil) // reading data copies it: ev aliases nothing of the caller's
}
