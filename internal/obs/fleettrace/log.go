package fleettrace

// The coordinator journal is the fleet span log. internal/sweepsvc appends one
// Record per sweep submission and per scheduler transition of a point to a
// jsonlog.Log (DESIGN.md, "Append-only logs"), replays the file on restart,
// and this file renders it as a timeline.
//
// Record taxonomy (kind / state):
//
//	sweep                            a submission, carrying its spec; its time
//	                                 is every point's queue time
//	attempt running                  scheduled on a worker (attempt span opens)
//	attempt retry                    the attempt failed retryably (span
//	                                 closes); cause tags why (worker-death,
//	                                 5xx, panic, timeout, protocol)
//	event   steal                    a retried point was picked up by a
//	                                 different worker; cause names the worker
//	                                 it was taken from
//	point   done | cached | failed   terminal: closes the point's root span
//	                                 and, when it names a worker, the attempt
//	                                 span that worker had open; reported
//	                                 keeps the name the worker gave itself
//
// Trace and span IDs are not stored: they are minted from the sweep id, point
// and attempt.

import (
	"encoding/json"
	"fmt"
	"io"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/trace"
)

// Record is one journal line.
type Record struct {
	// TS is when the transition happened, in wall-clock Unix microseconds, so
	// the records of successive coordinator processes share one time line.
	TS    int64  `json:"ts_us"`
	Kind  string `json:"kind"`
	State string `json:"state,omitempty"`
	Sweep string `json:"sweep"`
	Point int    `json:"point"`
	// Attempt counts executions of the point in this process (1 = first).
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`
	// Reported is the name a terminal record's worker reported for itself,
	// when it is not Worker (a fleet worker's name; Worker is its base URL).
	Reported string `json:"reported,omitempty"`
	Cause    string `json:"cause,omitempty"`
	Error    string `json:"error,omitempty"`
	// Name and Spec are a sweep record's submission.
	Name string       `json:"name,omitempty"`
	Spec *specv1.Spec `json:"spec,omitempty"`
}

// Terminal reports whether the record settles its subject in a final state.
func (r Record) Terminal() bool {
	return r.State == "done" || r.State == "cached" || r.State == "failed" || r.State == "cancelled"
}

// ReadRecords decodes the journal lines log.Scan delivers, skipping lines
// that are not records: torn ones, and those of an older journal format.
func ReadRecords(log *jsonlog.Log) ([]Record, error) {
	var out []Record
	err := log.Scan(func(_ int64, line []byte) {
		var rec Record
		if json.Unmarshal(line, &rec) == nil && rec.Kind != "" {
			out = append(out, rec)
		}
	})
	if err != nil {
		return out, fmt.Errorf("fleettrace: read records: %w", err)
	}
	return out, nil
}

// WritePerfetto renders journal records as a Chrome trace-event timeline on
// the fleet process: one thread per worker (in order of first appearance),
// one complete slice per closed attempt — from its attempt/running record to
// the attempt/retry or terminal point record that ends it — and instant
// events for retries and steals.
func WritePerfetto(w io.Writer, records []Record) error {
	p := trace.NewPerfetto(w)
	tids := make(map[string]int64)
	tidOf := func(worker string) int64 {
		tid, ok := tids[worker]
		if !ok {
			tid = int64(len(tids))
			tids[worker] = tid
			p.FleetThread(tid, worker)
		}
		return tid
	}
	type pointKey struct {
		sweep string
		point int
	}
	running := make(map[pointKey]Record) // a point runs one attempt at a time
	for _, r := range records {
		k := pointKey{r.Sweep, r.Point}
		switch {
		case r.Kind == "attempt" && r.State == "running":
			tidOf(r.Worker)
			running[k] = r
		case r.Kind == "attempt" && r.State == "retry" || r.Kind == "point" && r.Terminal():
			start, ok := running[k]
			if !ok {
				continue // settled from the store: no attempt was open
			}
			delete(running, k)
			tid, tr := tidOf(start.Worker), MintTraceID(r.Sweep)
			args := map[string]any{
				"point": r.Point, "attempt": start.Attempt, "state": r.State,
				"trace": tr, "span": MintSpanID(tr, r.Point, start.Attempt), "sweep": r.Sweep,
			}
			if r.Cause != "" {
				args["cause"] = r.Cause
			}
			name := fmt.Sprintf("point %d attempt %d", r.Point, start.Attempt)
			p.FleetSlice(tid, name, start.TS, r.TS-start.TS, args)
			if r.State == "retry" {
				p.FleetInstant(tid, "retry: "+r.Cause, r.TS,
					map[string]any{"point": r.Point, "attempt": start.Attempt, "cause": r.Cause})
			}
		case r.Kind == "event" && r.State == "steal":
			p.FleetInstant(tidOf(r.Worker), "steal", r.TS,
				map[string]any{"point": r.Point, "attempt": r.Attempt, "from": r.Cause})
		}
	}
	return p.Close()
}
