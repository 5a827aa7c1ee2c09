package fleettrace

// The coordinator-side span log. Every scheduler transition of every point
// appends one Record — to the in-memory log (the Perfetto export reads it
// back) and, when a sink is attached, as one line of a jsonlog.Log
// (DESIGN.md, "Append-only logs").
//
// Record taxonomy (kind / state):
//
//	point   queued                     the point entered the work queue
//	point   done | cached | failed     terminal; dur_us spans queued -> settled
//	attempt running                    scheduled on a worker (span opens)
//	attempt done | cached | failed     the attempt settled its point
//	attempt retry                      the attempt failed retryably; cause tags
//	                                   why (worker-death, 5xx, panic, timeout)
//	event   steal                      a retried point was picked up by a
//	                                   different worker; cause names the
//	                                   worker it was taken from
//	point   <terminal>, cause=replay   journal replay of a pre-restart
//	                                   completion (no attempt spans: the
//	                                   execution happened in a prior process)

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"flexsim/internal/jsonlog"
	"flexsim/internal/trace"
)

// Record is one span-log line.
type Record struct {
	// TS is microseconds since the log started; for closed spans it is the
	// span's end, with DurUS reaching back to its start.
	TS    int64 `json:"ts_us"`
	DurUS int64 `json:"dur_us,omitempty"`
	// Trace/Span/Parent are the record's trace context (Parent links an
	// attempt span to its point's root span).
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Sweep  string `json:"sweep"`
	Point  int    `json:"point"`
	// Kind is "point", "attempt" or "event"; State is the transition (see
	// the taxonomy above).
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Terminal reports whether the record settles its subject (point or
// attempt) in a final state.
func (r Record) Terminal() bool {
	return r.State == "done" || r.State == "cached" || r.State == "failed" || r.State == "cancelled"
}

// Log is the coordinator's fleet span log. All methods are safe for
// concurrent use from worker loops.
type Log struct {
	mu      sync.Mutex
	sink    *jsonlog.Log // optional
	start   time.Time
	records []Record
	// open span starts, keyed by sweep\x00point(\x00attempt).
	openUS map[string]int64
}

// NewLog returns a span log appending JSONL lines to sink (nil = in-memory
// only; the Perfetto export still works). The caller closes sink, and
// learns of a failed append there; recording continues in memory regardless.
func NewLog(sink *jsonlog.Log) *Log {
	return &Log{sink: sink, start: time.Now(), openUS: make(map[string]int64)}
}

// Records returns a snapshot of every record so far.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

func (l *Log) nowUS() int64 { return time.Since(l.start).Microseconds() }

func pointKey(sweep string, point int) string {
	return fmt.Sprintf("%s\x00%d", sweep, point)
}

func attemptKey(sweep string, point, attempt int) string {
	return fmt.Sprintf("%s\x00%d\x00%d", sweep, point, attempt)
}

// append records one line under the lock.
func (l *Log) append(r Record) {
	l.records = append(l.records, r)
	if l.sink != nil {
		line, _ := json.Marshal(r) // ints and strings: cannot fail
		l.sink.Append(line)        // a failure is kept for the sink's Close
	}
}

// PointQueued opens a point's root span as it enters the work queue and
// returns its context.
func (l *Log) PointQueued(sweep, traceID string, point int) Context {
	ctx := PointContext(traceID, point)
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.nowUS()
	l.openUS[pointKey(sweep, point)] = now
	l.append(Record{
		TS: now, Trace: traceID, Span: ctx.SpanID, Sweep: sweep, Point: point,
		Kind: "point", State: "queued",
	})
	return ctx
}

// PointSettled closes a point's root span in a terminal state. cause is ""
// for ordinary settles, "replay" for journal-replayed completions.
func (l *Log) PointSettled(sweep, traceID string, point int, state, worker, cause, errMsg string) {
	ctx := PointContext(traceID, point)
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.nowUS()
	var dur int64
	if start, ok := l.openUS[pointKey(sweep, point)]; ok {
		dur = now - start
		delete(l.openUS, pointKey(sweep, point))
	}
	l.append(Record{
		TS: now, DurUS: dur, Trace: traceID, Span: ctx.SpanID, Sweep: sweep, Point: point,
		Kind: "point", State: state, Worker: worker, Cause: cause, Error: errMsg,
	})
}

// AttemptStart opens an execution attempt's span as it is scheduled on a
// worker and returns its context.
func (l *Log) AttemptStart(sweep, traceID string, point, attempt int, worker string) Context {
	ctx := AttemptContext(traceID, point, attempt)
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.nowUS()
	l.openUS[attemptKey(sweep, point, attempt)] = now
	l.append(Record{
		TS: now, Trace: traceID, Span: ctx.SpanID, Parent: MintSpanID(traceID, point, 0),
		Sweep: sweep, Point: point, Kind: "attempt", State: "running",
		Attempt: attempt, Worker: worker,
	})
	return ctx
}

// AttemptEnd closes an execution attempt's span: state "done", "cached" or
// "failed" settles the point; state "retry" requeues it with cause tagging
// the failure (worker-death, 5xx, panic, timeout).
func (l *Log) AttemptEnd(sweep, traceID string, point, attempt int, worker, state, cause, errMsg string) {
	ctx := AttemptContext(traceID, point, attempt)
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.nowUS()
	var dur int64
	if start, ok := l.openUS[attemptKey(sweep, point, attempt)]; ok {
		dur = now - start
		delete(l.openUS, attemptKey(sweep, point, attempt))
	}
	l.append(Record{
		TS: now, DurUS: dur, Trace: traceID, Span: ctx.SpanID, Parent: MintSpanID(traceID, point, 0),
		Sweep: sweep, Point: point, Kind: "attempt", State: state,
		Attempt: attempt, Worker: worker, Cause: cause, Error: errMsg,
	})
}

// Steal records that worker picked up a point whose previous attempt ran
// on from (an instant event on worker's timeline).
func (l *Log) Steal(sweep, traceID string, point, attempt int, worker, from string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.append(Record{
		TS: l.nowUS(), Trace: traceID, Span: MintSpanID(traceID, point, attempt),
		Parent: MintSpanID(traceID, point, 0), Sweep: sweep, Point: point,
		Kind: "event", State: "steal", Attempt: attempt, Worker: worker, Cause: from,
	})
}

// ReadRecords decodes the span-log lines log.Scan delivers, skipping lines
// that are not records.
func ReadRecords(log *jsonlog.Log) ([]Record, error) {
	var out []Record
	err := log.Scan(func(_ int64, line []byte) {
		var rec Record
		if json.Unmarshal(line, &rec) == nil {
			out = append(out, rec)
		}
	})
	if err != nil {
		return out, fmt.Errorf("fleettrace: read records: %w", err)
	}
	return out, nil
}

// WritePerfetto renders the span log as a Chrome trace-event timeline on
// the fleet process: one thread per worker (in order of first appearance),
// one complete slice per closed attempt, instant events for retries and
// steals. Point root spans do not render as slices — attempts are the
// scheduled work; the root span lives in the JSONL.
func (l *Log) WritePerfetto(w io.Writer) error {
	records := l.Records()
	p := trace.NewPerfetto(w)
	tids := make(map[string]int64)
	tidOf := func(worker string) int64 {
		if worker == "" {
			worker = "coordinator"
		}
		tid, ok := tids[worker]
		if !ok {
			tid = int64(len(tids))
			tids[worker] = tid
			p.FleetThread(tid, worker)
		}
		return tid
	}
	// Threads in first-appearance order, then slices/instants in record
	// order (already time-sorted: the log appends monotonically).
	for _, r := range records {
		switch {
		case r.Kind == "attempt" && r.State != "running":
			args := map[string]any{
				"point": r.Point, "attempt": r.Attempt, "state": r.State,
				"trace": r.Trace, "span": r.Span, "sweep": r.Sweep,
			}
			if r.Cause != "" {
				args["cause"] = r.Cause
			}
			name := fmt.Sprintf("point %d attempt %d", r.Point, r.Attempt)
			p.FleetSlice(tidOf(r.Worker), name, r.TS-r.DurUS, r.DurUS, args)
			if r.State == "retry" {
				p.FleetInstant(tidOf(r.Worker), "retry: "+r.Cause, r.TS,
					map[string]any{"point": r.Point, "attempt": r.Attempt, "cause": r.Cause})
			}
		case r.Kind == "event" && r.State == "steal":
			p.FleetInstant(tidOf(r.Worker), "steal", r.TS,
				map[string]any{"point": r.Point, "attempt": r.Attempt, "from": r.Cause})
		case r.Kind == "point" && r.Terminal() && r.Cause == "replay":
			p.FleetInstant(tidOf(r.Worker), "replayed", r.TS,
				map[string]any{"point": r.Point, "state": r.State})
		}
	}
	return p.Close()
}
