package sweepsvc

// Fleet-tracing tests: the journal as the span log through
// dispatch/retry/steal and restart, trace propagation into results,
// scheduler metrics, worker naming, and the SSE fan-out contract under a slow
// subscriber.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/obs"
	"flexsim/internal/obs/fleettrace"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// fakeExec is a scriptable executor for driving runTask directly.
type fakeExec struct {
	id string
	fn func(cfg sim.Config) (*specv1.RunResponse, error)
}

func (f *fakeExec) name() string          { return f.id }
func (f *fakeExec) await(context.Context) {}
func (f *fakeExec) run(_ context.Context, cfg sim.Config) (*specv1.RunResponse, error) {
	return f.fn(cfg)
}

// traceService builds a service journaling to a fresh file and returns it
// with a reader of that journal.
func traceService(t *testing.T, cfg Config) (*Service, func() []fleettrace.Record) {
	t.Helper()
	cfg.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
	if cfg.Cache == nil {
		cfg.Cache = openCache(t, t.TempDir())
	}
	if cfg.Run == nil {
		cfg.Run = stubRun
	}
	if cfg.LocalWorkers == 0 {
		cfg.LocalWorkers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, func() []fleettrace.Record { return journalRecords(t, cfg.JournalPath) }
}

// journalRecords reads every record of the journal at path.
func journalRecords(t *testing.T, path string) []fleettrace.Record {
	t.Helper()
	j, err := jsonlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs, err := fleettrace.ReadRecords(j)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// pointKey names one point of one sweep in the journal.
type pointKey struct {
	sweep string
	point int
}

// TestTraceHappyPath: every settled point carries its root-span traceparent,
// and the journal holds the sweep record and, per executed point, exactly
// an attempt/running line and a terminal point line.
func TestTraceHappyPath(t *testing.T) {
	s, records := traceService(t, Config{})
	st, err := s.Submit(testSpec("trace-happy", 3))
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s, st.ID)

	wantTrace := fleettrace.MintTraceID(st.ID)
	results, err := s.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range results {
		want := fleettrace.PointContext(wantTrace, pr.Index).Traceparent()
		if pr.Trace != want {
			t.Errorf("point %d trace %q, want %q", pr.Index, pr.Trace, want)
		}
	}

	recs := records()
	if len(recs) != 1+2*3 || recs[0].Kind != "sweep" || recs[0].Sweep != st.ID || recs[0].Spec == nil {
		t.Fatalf("journal: want the sweep record and two lines per point, got %+v", recs)
	}
	lines := map[int][]string{}
	for _, r := range recs[1:] {
		lines[r.Point] = append(lines[r.Point], r.Kind+"/"+r.State)
	}
	for i := 0; i < 3; i++ {
		if got := lines[i]; len(got) != 2 || got[0] != "attempt/running" || got[1] != "point/done" {
			t.Errorf("point %d journal lines %v, want [attempt/running point/done]", i, got)
		}
	}

	done, _, _ := s.Metrics().Settled()
	if done != 3 {
		t.Errorf("metrics: %d done, want 3", done)
	}
	if s.Metrics().QueueDepth() != 0 || s.Metrics().InFlight() != 0 {
		t.Errorf("metrics: queue depth %d, in flight %d after the sweep, want 0", s.Metrics().QueueDepth(), s.Metrics().InFlight())
	}
}

// retryThenSteal drives point i of sw through a worker-death retry on
// w-dead and a done second attempt on w-ok, as a coordinator's worker loops
// would, and returns the trace context the second attempt executed under.
// Each executor reports a name of its own, as a fleet worker does.
func retryThenSteal(t *testing.T, s *Service, sw *sweep, i int) string {
	t.Helper()
	tk := &task{sw: sw, index: i}
	dead := &fakeExec{id: "w-dead", fn: func(sim.Config) (*specv1.RunResponse, error) {
		return nil, &attemptError{causeWorkerDeath, errors.New("conn refused")}
	}}
	if retry, cause := s.runTask(dead, tk); !retry || cause != causeWorkerDeath {
		t.Fatalf("first attempt: retry=%v cause=%q, want true/worker-death", retry, cause)
	}
	var gotCtx string
	ok := &fakeExec{id: "w-ok", fn: func(c sim.Config) (*specv1.RunResponse, error) {
		gotCtx = c.TraceContext
		raw, err := specv1.EncodeResult(stubResult(c))
		if err != nil {
			t.Fatal(err)
		}
		return &specv1.RunResponse{Status: specv1.StatusDone, Result: raw, Worker: "ok-self"}, nil
	}}
	if retry, _ := s.runTask(ok, tk); retry {
		t.Fatal("second attempt should settle")
	}
	return gotCtx
}

// TestTraceRetryAndSteal drives one point through a retryable failure on
// worker A and a successful second attempt on worker B, asserting the
// retry/steal records, cause-tagged counters, and the non-terminal
// retry/steal events subscribers see.
func TestTraceRetryAndSteal(t *testing.T) {
	s, records := traceService(t, Config{})
	sw, err := s.newSweep("s77-feed", testSpec("trace-steal", 1))
	if err != nil {
		t.Fatal(err)
	}
	// A manual subscriber sees the retry and steal events.
	ch := make(chan specv1.Event, 16)
	sw.subs[ch] = struct{}{}

	// The executed config carried the attempt's span context.
	gotCtx := retryThenSteal(t, s, sw, 0)
	if wantCtx := fleettrace.AttemptContext(sw.traceID, 0, 2).Traceparent(); gotCtx != wantCtx {
		t.Errorf("propagated trace context %q, want %q", gotCtx, wantCtx)
	}

	// Journal: attempt-1 retry with cause, steal on w-ok, a done terminal
	// line; every record names the executor, not the name it reports.
	var states []string
	for _, r := range records() {
		states = append(states, r.Kind+"/"+r.State)
		switch {
		case r.Kind == "attempt" && r.State == "retry":
			if r.Cause != causeWorkerDeath || r.Worker != "w-dead" || r.Attempt != 1 || r.Error != "conn refused" {
				t.Errorf("retry record: %+v", r)
			}
		case r.Kind == "event" && r.State == "steal":
			if r.Worker != "w-ok" || r.Cause != "w-dead" || r.Attempt != 2 {
				t.Errorf("steal record: %+v", r)
			}
		case r.Kind == "point":
			if r.Worker != "w-ok" || r.Attempt != 2 {
				t.Errorf("terminal record: %+v", r)
			}
		}
	}
	want := "[attempt/running attempt/retry event/steal attempt/running point/done]"
	if got := fmt.Sprint(states); got != want {
		t.Fatalf("journal %s, want %s", got, want)
	}

	m := s.Metrics()
	if m.Retries()[causeWorkerDeath] != 1 || m.Steals() != 1 || m.InFlight() != 0 {
		t.Errorf("metrics: retries %v steals %d in flight %d", m.Retries(), m.Steals(), m.InFlight())
	}

	sw.mu.Lock()
	st := sw.statusLocked()
	pr := sw.results[0]
	sw.mu.Unlock()
	if st.Retries != 1 || st.Stolen != 1 || st.RetryCauses[causeWorkerDeath] != 1 {
		t.Errorf("status: %+v", st)
	}
	if pr.Worker != "ok-self" {
		t.Errorf("result worker %q, want the name the worker reported", pr.Worker)
	}

	// Subscribers got non-terminal retry and steal events with causes.
	var events []specv1.Event
	for len(ch) > 0 {
		events = append(events, <-ch)
	}
	var evRetry, evSteal *specv1.Event
	for i := range events {
		switch events[i].Type {
		case "retry":
			evRetry = &events[i]
		case "steal":
			evSteal = &events[i]
		}
	}
	if evRetry == nil || evRetry.Cause != causeWorkerDeath || evRetry.Point.Status != specv1.StatusRetrying {
		t.Fatalf("retry event: %+v", evRetry)
	}
	if evSteal == nil || evSteal.Cause != "w-dead" || evSteal.Point.Worker != "w-ok" {
		t.Fatalf("steal event: %+v", evSteal)
	}
	if evRetry.Trace != fleettrace.AttemptContext(sw.traceID, 0, 1).Traceparent() {
		t.Errorf("retry event trace context %q", evRetry.Trace)
	}
}

// TestTracePanicRetry: an isolated panic on the first execution is a
// cause-tagged retry through the real worker loop.
func TestTracePanicRetry(t *testing.T) {
	var calls atomic.Int64
	s, records := traceService(t, Config{
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			if calls.Add(1) == 1 {
				panic("induced panic")
			}
			return stubResult(cfg), nil
		},
	})
	st, err := s.Submit(testSpec("trace-panic", 1))
	if err != nil {
		t.Fatal(err)
	}
	final := awaitDone(t, s, st.ID)
	if final.Done != 1 || final.Retries != 1 {
		t.Fatalf("final status: %+v", final)
	}
	if final.RetryCauses[causePanic] != 1 {
		t.Fatalf("retry causes: %+v", final.RetryCauses)
	}

	sawRetry := false
	for _, r := range records() {
		if r.Kind == "attempt" && r.State == "retry" {
			sawRetry = true
			if r.Cause != causePanic || r.Attempt != 1 {
				t.Errorf("panic retry record: %+v", r)
			}
		}
	}
	if !sawRetry {
		t.Fatalf("no retry record in the journal: %+v", records())
	}
	if s.Metrics().Retries()[causePanic] != 1 {
		t.Errorf("metrics retries: %v", s.Metrics().Retries())
	}
}

// TestJournalReplaySpans: a restarted coordinator rebuilds settled points
// from the journal without appending to it, the replayed results carry
// their traceparent on the same deterministic trace, and ReplayStatus
// reports the restore for /healthz.
func TestJournalReplaySpans(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	cache := openCache(t, dir)

	s1, err := New(Config{Cache: cache, JournalPath: journal, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(testSpec("trace-replay", 3))
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s1, st.ID)
	s1.Drain(time.Second)
	before := len(journalRecords(t, journal))

	s2, err := New(Config{Cache: openCache(t, dir), JournalPath: journal, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	sweeps, settled, requeued := s2.ReplayStatus()
	if sweeps != 1 || settled != 3 || requeued != 0 {
		t.Fatalf("replay status %d/%d/%d, want 1/3/0", sweeps, settled, requeued)
	}
	if after := len(journalRecords(t, journal)); after != before {
		t.Fatalf("replay appended %d record(s); a replayed completion is already in the file", after-before)
	}

	wantTrace := fleettrace.MintTraceID(st.ID)
	results, err := s2.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range results {
		if pr.Trace != fleettrace.PointContext(wantTrace, pr.Index).Traceparent() {
			t.Errorf("replayed point %d trace %q", pr.Index, pr.Trace)
		}
	}
}

// TestJournalIsSpanLog: one sweep runs a retry and a steal through fakeExec,
// its coordinator stops with a point unrun, and a second coordinator on the
// same journal finishes it; then a resubmission settles from the store.
// Across both processes every point has exactly one terminal line and no
// attempt after it, the journal holds as many lines as before it was the
// span log, and the timeline draws one slice per attempt.
func TestJournalIsSpanLog(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	spec := testSpec("span-log", 3)

	s1, err := New(Config{Cache: openCache(t, dir), JournalPath: journal, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	s1.queue.close() // this test is the only worker loop
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	sw := s1.lookup(st.ID)
	retryThenSteal(t, s1, sw, 0)
	ok := &fakeExec{id: "w-ok", fn: func(cfg sim.Config) (*specv1.RunResponse, error) {
		raw, _ := specv1.EncodeResult(stubResult(cfg))
		return &specv1.RunResponse{Status: specv1.StatusDone, Result: raw, Worker: "ok-self"}, nil
	}}
	if retry, _ := s1.runTask(ok, &task{sw: sw, index: 1}); retry {
		t.Fatal("point 1 should settle")
	}
	s1.Close() // point 2 never ran

	s2, err := New(Config{Cache: openCache(t, dir), JournalPath: journal, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if final := awaitDone(t, s2, st.ID); final.Done != 3 {
		t.Fatalf("resumed sweep: %+v", final)
	}
	again, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached != 3 {
		t.Fatalf("resubmission: %+v", again)
	}
	s2.Close()

	recs := journalRecords(t, journal)
	lines, terminal := map[pointKey]int{}, map[pointKey]int{}
	running := 0
	for _, r := range recs {
		k := pointKey{r.Sweep, r.Point}
		switch {
		case r.Kind == "sweep":
			continue
		case r.Kind == "point" && r.Terminal():
			terminal[k]++
		case r.Kind == "attempt" && r.State == "running":
			running++
			if terminal[k] > 0 {
				t.Errorf("attempt after point %v settled: %+v", k, r)
			}
		}
		lines[k]++
	}
	want := map[pointKey]int{
		{st.ID, 0}:    5,                                     // running, retry, steal, running, done
		{st.ID, 1}:    2,                                     // running, done (first process)
		{st.ID, 2}:    2,                                     // running, done (second process)
		{again.ID, 0}: 1, {again.ID, 1}: 1, {again.ID, 2}: 1, // cached at submit
	}
	for k, n := range want {
		if lines[k] != n || terminal[k] != 1 {
			t.Errorf("point %v: %d line(s), %d terminal; want %d and 1", k, lines[k], terminal[k], n)
		}
	}
	if len(lines) != len(want) {
		t.Errorf("journal names %d points, want %d", len(lines), len(want))
	}

	var buf bytes.Buffer
	if err := fleettrace.WritePerfetto(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	perAttempt, total := map[string]int{}, 0
	for _, ev := range events {
		if ev["ph"] == "X" {
			perAttempt[ev["name"].(string)]++
			total++
		}
	}
	if total != running || len(perAttempt) != running || running != 4 {
		t.Errorf("timeline slices %v for %d attempt(s); want one per attempt", perAttempt, running)
	}
}

// TestWorkersNamedByExecutor: a fleet worker reports a name of its own
// (-name) that differs from the URL the coordinator dispatches to. Records,
// metrics and the timeline name it by URL, so one worker is one thread; the
// point result keeps the name the worker reported.
func TestWorkersNamedByExecutor(t *testing.T) {
	var failed atomic.Bool
	serve := func(name string) *httptest.Server {
		h := (&Worker{Name: name, Run: stubRun}).Handler()
		// The first run request anywhere fails with a 5xx: a retry. Nothing
		// here serves /healthz, so the failed worker stays gated and the
		// other one steals the point.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/v1/run" && failed.CompareAndSwap(false, true) {
				http.Error(w, "injected failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	alpha, beta := serve("alpha"), serve("beta")
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := New(Config{Cache: openCache(t, t.TempDir()), JournalPath: journal,
		Fleet: []string{alpha.URL, beta.URL}, HealthEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(testSpec("names", 1))
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitDone(t, s, st.ID); final.Done != 1 || final.Retries != 1 || final.Stolen != 1 {
		t.Fatalf("final status: %+v", final)
	}
	results, err := s.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if w := results[0].Worker; w != "alpha" && w != "beta" {
		t.Errorf("result worker %q, want the name the worker reported", w)
	}
	var exp strings.Builder
	if err := s.Metrics().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{alpha.URL, beta.URL} {
		if want := fmt.Sprintf("flexsweep_worker_points_total{worker=%q} 1", url); !strings.Contains(exp.String(), want) {
			t.Errorf("metrics missing %s:\n%s", want, exp.String())
		}
	}
	s.Close()

	var buf bytes.Buffer
	if err := fleettrace.WritePerfetto(&buf, journalRecords(t, journal)); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var threads []string
	for _, ev := range events {
		if ev["name"] == "thread_name" && ev["pid"] == float64(4) {
			threads = append(threads, ev["args"].(map[string]any)["name"].(string))
		}
	}
	if len(threads) != 2 || !slices.Contains(threads, alpha.URL) || !slices.Contains(threads, beta.URL) {
		t.Fatalf("timeline threads %v, want exactly the two worker URLs", threads)
	}
}

// TestSubscribeSlowSubscriber pins the SSE fan-out contract: a subscriber
// that never drains blocks nothing — the sweep completes, the subscriber
// keeps exactly its 64-event buffer (later events drop), and channel
// closure is the terminal signal. A late subscriber still gets done.
func TestSubscribeSlowSubscriber(t *testing.T) {
	release := make(chan struct{})
	s, _ := traceService(t, Config{
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			<-release
			return stubResult(cfg), nil
		},
	})
	// 40 distinct points -> 81 events (point+progress per point, one done):
	// more than the 64-slot subscriber buffer.
	base := sim.Quick()
	base.Label = "trace-slow"
	loads := make([]float64, 40)
	for i := range loads {
		loads[i] = 0.01 * float64(i+1)
	}
	st, err := s.Submit(specv1.LoadSpec("trace-slow", base, loads))
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe while every run is still gated, so all 81 events are
	// offered to this (never-reading) subscriber.
	slow, cancelSlow, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSlow()
	close(release)

	// The sweep completes even though the slow subscriber never reads.
	final := awaitDone(t, s, st.ID)
	if final.Done != 40 {
		t.Fatalf("final status: %+v", final)
	}

	// The slow channel holds exactly its buffer and is closed (the range
	// terminates): deterministic drop-past-64, closure as terminal signal.
	buffered := 0
	for range slow {
		buffered++
	}
	if buffered != 64 {
		t.Fatalf("slow subscriber buffered %d events, want exactly 64", buffered)
	}

	// A late subscriber to the settled sweep gets the terminal done event
	// immediately, then closure.
	late, cancelLate, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelLate()
	ev, ok := <-late
	if !ok || ev.Type != "done" || ev.Stat.State != specv1.SweepDone {
		t.Fatalf("late subscriber: %+v (open=%v)", ev, ok)
	}
	if _, ok := <-late; ok {
		t.Fatal("late subscriber channel not closed after done")
	}
}

// TestWorkerTraceEcho: a fleet worker threads the request's trace context
// into the executed sim.Config and echoes it in the response.
func TestWorkerTraceEcho(t *testing.T) {
	var gotCtx string
	wk := &Worker{Name: "w-echo", Run: func(_ context.Context, c sim.Config) (*stats.Result, error) {
		gotCtx = c.TraceContext
		return stubResult(c), nil
	}}
	srv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", wk.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tp := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	cfg := sim.Quick()
	cfg.Label = "trace-echo"
	req := specv1.RunRequest{SchemaVersion: specv1.Version, Config: specv1.FromSim(cfg), Trace: tp}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+srv.Addr()+"/api/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}
	wr, err := specv1.DecodeRunResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Status != specv1.StatusDone || wr.Trace != tp {
		t.Fatalf("response: status %s trace %q, want done/%q", wr.Status, wr.Trace, tp)
	}
	if gotCtx != tp {
		t.Fatalf("executed config trace context %q, want %q", gotCtx, tp)
	}
}
