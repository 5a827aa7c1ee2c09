package trace

// Chrome trace-event (Perfetto) export: the derived lifecycle spans and the
// detector's pass timeline are streamed as a JSON array of complete ("X")
// events that loads directly in ui.perfetto.dev or chrome://tracing. The
// mapping is one simulated cycle = 1 µs of trace time, so the timeline axis
// reads in cycles; messages render as threads of the "messages" process and
// detector passes as a single "detector" thread.

import (
	"bufio"
	"encoding/json"
	"io"
)

// Trace-event process IDs: one synthetic process per track family. They are
// part of the export's format (CI selects the fleet lane by pid 4), so a
// retired one is not reused or renumbered.
const (
	perfettoMessagesPID = 1
	perfettoDetectorPID = 2
	perfettoFleetPID    = 4
)

// perfettoEvent is the wire form of one trace-event object. Dur is a
// pointer so complete events serialize dur even when zero while metadata
// events omit it.
type perfettoEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  *int64 `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int64  `json:"tid"`
	// S scopes instant ("i") events; "t" = thread-scoped.
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// PerfettoWriter is a Tracer that streams the run as a Chrome trace-event
// JSON array: per-message lifecycle spans (derived by a spanTracker) plus
// detector-pass spans fed through DetectorPass. Close is required — it
// flushes open spans and terminates the JSON array; without it the output
// is not valid JSON. Errors are sticky and reported by Err (the cycle loop
// cannot fail on I/O).
type PerfettoWriter struct {
	w      *bufio.Writer
	err    error
	n      int
	tr     spanTracker
	closed bool

	// fleetTids tracks which fleet-worker threads (pid 4) have emitted
	// their thread metadata; only the sweep coordinator's fleet timeline
	// export touches it.
	fleetTids map[int64]bool
}

// NewPerfetto returns a writer streaming trace-event JSON to w. The caller
// must Close it after the run.
func NewPerfetto(w io.Writer) *PerfettoWriter {
	p := &PerfettoWriter{w: bufio.NewWriter(w)}
	p.tr.emit = p.emitSpan
	return p
}

// write appends one event object to the array, emitting the opening
// bracket and process/thread metadata ahead of the first event.
func (p *PerfettoWriter) write(ev perfettoEvent) {
	if p.err != nil || p.closed {
		return
	}
	if p.n == 0 {
		if _, p.err = p.w.WriteString("["); p.err != nil {
			return
		}
		for _, meta := range []perfettoEvent{
			{Name: "process_name", Ph: "M", Pid: perfettoMessagesPID, Args: map[string]any{"name": "messages"}},
			{Name: "process_name", Ph: "M", Pid: perfettoDetectorPID, Args: map[string]any{"name": "detector"}},
			{Name: "thread_name", Ph: "M", Pid: perfettoDetectorPID, Args: map[string]any{"name": "passes"}},
		} {
			p.writeObj(meta)
		}
	}
	p.writeObj(ev)
}

// writeObj writes one object with its array separator.
func (p *PerfettoWriter) writeObj(ev perfettoEvent) {
	if p.err != nil {
		return
	}
	sep := "\n"
	if p.n > 0 {
		sep = ",\n"
	}
	if _, p.err = p.w.WriteString(sep); p.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		p.err = err
		return
	}
	if _, p.err = p.w.Write(b); p.err != nil {
		return
	}
	p.n++
}

// emitSpan renders one closed lifecycle span as a complete event on the
// owning message's thread.
func (p *PerfettoWriter) emitSpan(s Span) {
	dur := s.End - s.Start
	args := map[string]any{"outcome": s.OutcomeName()}
	if s.Node >= 0 {
		args["node"] = s.Node
	}
	p.write(perfettoEvent{
		Name: s.Kind.String(), Cat: "lifecycle", Ph: "X",
		Ts: s.Start, Dur: &dur,
		Pid: perfettoMessagesPID, Tid: int64(s.Msg), Args: args,
	})
}

// Trace implements Tracer, folding lifecycle events into spans.
func (p *PerfettoWriter) Trace(e Event) {
	if p.closed {
		return
	}
	p.tr.feed(e)
}

// DetectorPass records one detector invocation on the detector track. Full
// passes render as one-cycle slices carrying the measured wall-clock build
// and analyze times in args; gated (change-gate short-circuited) passes
// render as zero-length slices.
func (p *PerfettoWriter) DetectorPass(cycle, buildNs, analyzeNs int64, deadlocks int, gated bool) {
	if p.closed {
		return
	}
	if cycle > p.tr.last {
		p.tr.last = cycle
	}
	name := "pass"
	var dur int64 = 1
	args := map[string]any{"deadlocks": deadlocks, "build_ns": buildNs, "analyze_ns": analyzeNs}
	if gated {
		name, dur = "gated", 0
		args = map[string]any{"gated": true}
	}
	p.write(perfettoEvent{
		Name: name, Cat: "detector", Ph: "X",
		Ts: cycle, Dur: &dur,
		Pid: perfettoDetectorPID, Tid: 0, Args: args,
	})
}

// TraceContext stamps the trace with the fleet span context this run
// executes under (a W3C traceparent minted by the sweep coordinator), as a
// metadata event. A per-run artifact produced by a fleet worker is thereby
// joinable to the coordinator's fleet timeline by trace and span ID.
func (p *PerfettoWriter) TraceContext(tc string) {
	if p.closed || tc == "" {
		return
	}
	p.write(perfettoEvent{Name: "trace_context", Ph: "M", Pid: perfettoMessagesPID,
		Args: map[string]any{"traceparent": tc}})
}

// FleetThread registers one worker thread of the fleet process (pid 4),
// emitting the process metadata ahead of the first thread. The fleet
// process renders a distributed sweep's scheduler timeline: the caller
// (obs/fleettrace) lays one thread per worker and one slice per attempt.
func (p *PerfettoWriter) FleetThread(tid int64, name string) {
	if p.closed {
		return
	}
	if p.fleetTids == nil {
		p.fleetTids = make(map[int64]bool)
		p.write(perfettoEvent{Name: "process_name", Ph: "M", Pid: perfettoFleetPID,
			Args: map[string]any{"name": "fleet"}})
	}
	if p.fleetTids[tid] {
		return
	}
	p.fleetTids[tid] = true
	p.write(perfettoEvent{Name: "thread_name", Ph: "M", Pid: perfettoFleetPID, Tid: tid,
		Args: map[string]any{"name": name}})
}

// FleetSlice renders one complete slice (an execution attempt) on a fleet
// worker thread; ts and dur are microseconds on the fleet wall clock.
func (p *PerfettoWriter) FleetSlice(tid int64, name string, ts, dur int64, args map[string]any) {
	if p.closed {
		return
	}
	if dur < 0 {
		dur = 0
	}
	p.write(perfettoEvent{Name: name, Cat: "fleet", Ph: "X",
		Ts: ts, Dur: &dur, Pid: perfettoFleetPID, Tid: tid, Args: args})
}

// FleetInstant renders one thread-scoped instant event (a retry or a
// steal) on a fleet worker thread.
func (p *PerfettoWriter) FleetInstant(tid int64, name string, ts int64, args map[string]any) {
	if p.closed {
		return
	}
	p.write(perfettoEvent{Name: name, Cat: "fleet", Ph: "i",
		Ts: ts, Pid: perfettoFleetPID, Tid: tid, S: "t", Args: args})
}

// Close force-closes spans still open at the last traced cycle, terminates
// the JSON array and flushes. Further Trace/DetectorPass calls are ignored.
func (p *PerfettoWriter) Close() error {
	if p.closed {
		return p.err
	}
	p.tr.finish()
	if p.err == nil && p.n == 0 {
		// Empty run: still emit a valid (metadata-only) array.
		if _, p.err = p.w.WriteString("["); p.err == nil {
			p.writeObj(perfettoEvent{Name: "process_name", Ph: "M",
				Pid: perfettoMessagesPID, Args: map[string]any{"name": "messages"}})
		}
	}
	p.closed = true
	if p.err == nil {
		_, p.err = p.w.WriteString("\n]\n")
	}
	if ferr := p.w.Flush(); p.err == nil {
		p.err = ferr
	}
	return p.err
}

// Err returns the first write error, if any.
func (p *PerfettoWriter) Err() error { return p.err }

// Ensure PerfettoWriter satisfies Tracer.
var _ Tracer = (*PerfettoWriter)(nil)
