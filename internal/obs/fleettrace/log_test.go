package fleettrace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flexsim/internal/jsonlog"
)

// openSink opens a span-log file in a fresh directory.
func openSink(t *testing.T) (*jsonlog.Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	sink, err := jsonlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return sink, path
}

// replayLifecycle drives one point through queued -> attempt 1 retry ->
// steal -> attempt 2 done, the shape every log test wants.
func replayLifecycle(l *Log, sweep, traceID string) {
	l.PointQueued(sweep, traceID, 0)
	l.AttemptStart(sweep, traceID, 0, 1, "w1")
	l.AttemptEnd(sweep, traceID, 0, 1, "w1", "retry", "worker-death", "conn refused")
	l.Steal(sweep, traceID, 0, 2, "w2", "w1")
	l.AttemptStart(sweep, traceID, 0, 2, "w2")
	l.AttemptEnd(sweep, traceID, 0, 2, "w2", "done", "", "")
	l.PointSettled(sweep, traceID, 0, "done", "w2", "", "")
}

func TestLogRecordsLifecycle(t *testing.T) {
	sink, _ := openSink(t)
	l := NewLog(sink)
	tr := MintTraceID("s1-aaaa")
	replayLifecycle(l, "s1-aaaa", tr)

	recs := l.Records()
	wantStates := []string{"queued", "running", "retry", "steal", "running", "done", "done"}
	if len(recs) != len(wantStates) {
		t.Fatalf("got %d records, want %d: %+v", len(recs), len(wantStates), recs)
	}
	for i, want := range wantStates {
		if recs[i].State != want {
			t.Errorf("record %d: state %q, want %q", i, recs[i].State, want)
		}
		if recs[i].Trace != tr {
			t.Errorf("record %d: trace %q, want %q", i, recs[i].Trace, tr)
		}
	}
	// The retry record carries its cause and closes attempt 1's span.
	retry := recs[2]
	if retry.Cause != "worker-death" || retry.Attempt != 1 || retry.Kind != "attempt" {
		t.Fatalf("retry record: %+v", retry)
	}
	if retry.Span != MintSpanID(tr, 0, 1) || retry.Parent != MintSpanID(tr, 0, 0) {
		t.Fatalf("retry span linkage: %+v", retry)
	}
	// The terminal point record closes the root span across the whole path.
	final := recs[len(recs)-1]
	if final.Kind != "point" || !final.Terminal() || final.Span != MintSpanID(tr, 0, 0) {
		t.Fatalf("final record: %+v", final)
	}
	if final.DurUS < recs[0].TS-recs[0].TS { // non-negative by construction
		t.Fatalf("final duration negative: %+v", final)
	}

	// The JSONL stream reads back the same records.
	back, err := ReadRecords(sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("JSONL round trip: %d records, want %d", len(back), len(recs))
	}
	for i := range back {
		if back[i] != recs[i] {
			t.Fatalf("record %d differs after round trip: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestLogNilWriterInMemory(t *testing.T) {
	l := NewLog(nil)
	tr := MintTraceID("s2-bbbb")
	replayLifecycle(l, "s2-bbbb", tr)
	if len(l.Records()) != 7 {
		t.Fatalf("in-memory log: %d records", len(l.Records()))
	}
}

// tornLog writes one point's two records to a fresh span log and then half a
// line, as a coordinator killed mid-write leaves it.
func tornLog(t *testing.T) (*jsonlog.Log, string) {
	t.Helper()
	sink, path := openSink(t)
	l := NewLog(sink)
	tr := MintTraceID("s3-cccc")
	l.PointQueued("s3-cccc", tr, 0)
	l.PointSettled("s3-cccc", tr, 0, "done", "w1", "", "")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"ts_us":12,"trace":"`); err != nil {
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
// is its own line, not glued to the torn bytes and lost with them.
func TestAppendAfterTornTail(t *testing.T) {
	_, path := tornLog(t)
	sink, err := jsonlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	l := NewLog(sink)
	l.PointQueued("s3-cccc", MintTraceID("s3-cccc"), 1)
	recs, err := ReadRecords(sink)
	if err != nil || len(recs) != 3 || recs[2].Point != 1 || recs[2].State != "queued" {
		t.Fatalf("after restart: err %v, records %+v; want the 2 old ones and the new one", err, recs)
	}
}

// TestWritePerfetto pins the structure of the fleet timeline export: a
// valid JSON array with one fleet process, one thread per worker, complete
// slices for closed attempts, instants for retries and steals.
func TestWritePerfetto(t *testing.T) {
	l := NewLog(nil)
	tr := MintTraceID("s4-dddd")
	replayLifecycle(l, "s4-dddd", tr)
	// A second point replayed from a journal.
	l.PointSettled("s4-dddd", tr, 1, "cached", "", "replay", "")

	var buf bytes.Buffer
	if err := l.WritePerfetto(&buf); err != nil {
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
	// Threads: w1, w2 and the coordinator (for the replayed point).
	if len(threads) != 3 {
		t.Fatalf("got %d fleet threads, want 3: %+v", len(threads), threads)
	}
	// Slices: attempt 1 (retry) and attempt 2 (done).
	if len(slices) != 2 {
		t.Fatalf("got %d attempt slices, want 2: %+v", len(slices), slices)
	}
	for _, s := range slices {
		args := s["args"].(map[string]any)
		if args["trace"] != tr {
			t.Errorf("slice args missing trace: %+v", s)
		}
	}
	// Instants: retry, steal, replayed.
	names := map[string]bool{}
	for _, in := range instants {
		names[in["name"].(string)] = true
		if in["s"] != "t" {
			t.Errorf("instant %v not thread-scoped", in["name"])
		}
	}
	for _, want := range []string{"retry: worker-death", "steal", "replayed"} {
		if !names[want] {
			t.Errorf("missing instant %q (got %v)", want, names)
		}
	}
}
