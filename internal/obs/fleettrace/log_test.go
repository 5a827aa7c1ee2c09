package fleettrace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flexsim/internal/jsonlog"
)

// openSink opens a journal file in a fresh directory.
func openSink(t *testing.T) (*jsonlog.Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	sink, err := jsonlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return sink, path
}

// appendRecords appends each record as one journal line.
func appendRecords(t *testing.T, sink *jsonlog.Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Append(line); err != nil {
			t.Fatal(err)
		}
	}
}

// lifecycle is point 0's path through the scheduler — attempt 1 on w1
// fails retryably, w2 steals it and settles it — and point 1, served from
// the store at submit, with microsecond stamps.
func lifecycle(sweep string) []Record {
	return []Record{
		{TS: 100, Kind: "sweep", Sweep: sweep, Name: "demo"},
		{TS: 110, Kind: "attempt", State: "running", Sweep: sweep, Point: 0, Attempt: 1, Worker: "w1"},
		{TS: 120, Kind: "point", State: "cached", Sweep: sweep, Point: 1},
		{TS: 150, Kind: "attempt", State: "retry", Sweep: sweep, Point: 0, Attempt: 1, Worker: "w1", Cause: "worker-death"},
		{TS: 160, Kind: "event", State: "steal", Sweep: sweep, Point: 0, Attempt: 2, Worker: "w2", Cause: "w1"},
		{TS: 160, Kind: "attempt", State: "running", Sweep: sweep, Point: 0, Attempt: 2, Worker: "w2"},
		{TS: 200, Kind: "point", State: "done", Sweep: sweep, Point: 0, Attempt: 2, Worker: "w2"},
	}
}

// tornLog writes two records to a fresh journal and then half a line, as a
// coordinator killed mid-write leaves it.
func tornLog(t *testing.T) (*jsonlog.Log, string) {
	t.Helper()
	sink, path := openSink(t)
	appendRecords(t, sink, lifecycle("s3-cccc")[:2]...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"ts_us":12,"kind":"`); err != nil {
		t.Fatal(err)
	}
	return sink, path
}

func TestReadRecordsToleratesTornTail(t *testing.T) {
	sink, _ := tornLog(t)
	recs, err := ReadRecords(sink)
	if err != nil || len(recs) != 2 {
		t.Fatalf("torn tail: %d records, err %v; want the 2 whole ones and no error", len(recs), err)
	}
}

// TestAppendAfterTornTail: the first record a restarted coordinator appends
// is its own line, not glued to the torn bytes and lost with them; a line
// of an older journal format is skipped like the tear.
func TestAppendAfterTornTail(t *testing.T) {
	_, path := tornLog(t)
	sink, err := jsonlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := sink.Append([]byte(`{"type":"assign","sweep":"s3-cccc","index":1}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, sink, Record{TS: 300, Kind: "attempt", State: "running", Sweep: "s3-cccc", Point: 1, Attempt: 1, Worker: "w1"})
	recs, err := ReadRecords(sink)
	if err != nil || len(recs) != 3 || recs[2].Point != 1 || recs[2].State != "running" {
		t.Fatalf("after restart: err %v, records %+v; want the 2 old ones and the new one", err, recs)
	}
}

// TestWritePerfetto pins the structure of the fleet timeline: a valid JSON
// array with one fleet process, one thread per worker, a complete slice per
// closed attempt running from its attempt/running record to the record that
// ends it, instants for retries and steals.
func TestWritePerfetto(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, lifecycle("s4-dddd")); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("fleet timeline is not a JSON array: %v\n%s", err, buf.String())
	}

	var procs, threads, slices, instants []map[string]any
	for _, ev := range events {
		switch {
		case ev["name"] == "process_name":
			procs = append(procs, ev)
		case ev["name"] == "thread_name" && ev["pid"] == float64(4):
			threads = append(threads, ev)
		case ev["ph"] == "X":
			slices = append(slices, ev)
		case ev["ph"] == "i":
			instants = append(instants, ev)
		}
	}
	foundFleet := false
	for _, p := range procs {
		if args, ok := p["args"].(map[string]any); ok && args["name"] == "fleet" {
			foundFleet = true
		}
	}
	if !foundFleet {
		t.Fatalf("no fleet process metadata in %s", buf.String())
	}
	// Threads: w1 and w2; the point served from the store draws nothing.
	if len(threads) != 2 {
		t.Fatalf("got %d fleet threads, want 2: %+v", len(threads), threads)
	}
	// Slices: attempt 1 (110 to its retry at 150) and attempt 2 (160 to the
	// terminal record at 200).
	tr := MintTraceID("s4-dddd")
	want := []struct {
		ts, dur float64
		state   string
		attempt int
	}{{110, 40, "retry", 1}, {160, 40, "done", 2}}
	if len(slices) != len(want) {
		t.Fatalf("got %d attempt slices, want %d: %+v", len(slices), len(want), slices)
	}
	for i, s := range slices {
		args := s["args"].(map[string]any)
		w := want[i]
		if s["ts"] != w.ts || s["dur"] != w.dur || args["state"] != w.state ||
			args["trace"] != tr || args["span"] != MintSpanID(tr, 0, w.attempt) {
			t.Errorf("slice %d: %+v, want ts %v dur %v state %s on attempt %d's span", i, s, w.ts, w.dur, w.state, w.attempt)
		}
	}
	// Instants: retry and steal.
	names := map[string]bool{}
	for _, in := range instants {
		names[in["name"].(string)] = true
		if in["s"] != "t" {
			t.Errorf("instant %v not thread-scoped", in["name"])
		}
	}
	for _, want := range []string{"retry: worker-death", "steal"} {
		if !names[want] {
			t.Errorf("missing instant %q (got %v)", want, names)
		}
	}
}
