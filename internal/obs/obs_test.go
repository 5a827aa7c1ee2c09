package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/message"
	"flexsim/internal/trace"
)

func sample(cycle int64) Gauges {
	return Gauges{
		Cycle: cycle, Active: 10, Blocked: 3, Queued: 7, Flits: 120,
		Delivered: 40, Recovered: 2, Generated: 50,
		Deadlocks: 2, Invocations: 20, Gated: 5,
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	if r.Every != DefaultEvery {
		t.Errorf("default Every = %d", r.Every)
	}
	for c := int64(100); c <= 300; c += 100 {
		r.Record(sample(c))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	got := r.At(1)
	want := sample(200)
	if got != want {
		t.Errorf("At(1) = %+v, want %+v", got, want)
	}
}

func TestCSVSinkSchemaAndQuoting(t *testing.T) {
	var b strings.Builder
	s := NewCSVSink(&b)
	r := NewRecorder(100)
	r.Record(sample(100))
	s.Run(RunMeta{Label: `odd,"label"`, Seed: 9, Load: 0.5}, r)
	s.Run(RunMeta{Label: "plain", Seed: 10, Load: 1}, r)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), b.String())
	}
	if lines[0] != strings.Join(metricsColumns, ",") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], `"odd,""label""",9,0.5,100,`) {
		t.Errorf("quoted row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "plain,10,1,100,10,3,7,120,40,2,50,2,20,5") {
		t.Errorf("plain row = %q", lines[2])
	}
}

// TestResultsSampleHeader: the committed sample series has the header the
// CSV sink writes today, so a column change cannot leave it stale (the
// command that regenerates it is in results/README.md).
func TestResultsSampleHeader(t *testing.T) {
	data, err := os.ReadFile("../../results/quick-metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	r := NewRecorder(100)
	r.Record(sample(100))
	NewCSVSink(&b).Run(RunMeta{}, r)
	want, _, _ := strings.Cut(b.String(), "\n")
	if got, _, _ := strings.Cut(string(data), "\n"); got != want {
		t.Errorf("results/quick-metrics.csv header\n  %s\nwant the CSV sink's\n  %s\nregenerate it with the command in results/README.md", got, want)
	}
}

func TestJSONLSink(t *testing.T) {
	// "a\x7fb": Go's %q writes DEL as \x7f, which is not JSON.
	for _, label := range []string{"run", "a\x7fb"} {
		var b strings.Builder
		s := NewJSONLSink(&b)
		r := NewRecorder(100)
		r.Record(sample(100))
		r.Record(sample(200))
		s.Run(RunMeta{Label: label, Seed: 1, Load: 0.9}, r)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("%q: got %d lines", label, len(lines))
		}
		for _, line := range lines {
			if !json.Valid([]byte(line)) {
				t.Errorf("%q: invalid JSONL: %s", label, line)
			}
		}
		var row map[string]interface{}
		if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
			t.Fatalf("invalid JSONL: %v", err)
		}
		if row["label"] != label {
			t.Errorf("label %q came back as %q", label, row["label"])
		}
		for _, key := range metricsColumns {
			if _, ok := row[key]; !ok {
				t.Errorf("JSONL row missing %q: %s", key, lines[0])
			}
		}
	}
}

func TestSinksConcurrentFlush(t *testing.T) {
	var b strings.Builder
	s := NewCSVSink(&b)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRecorder(100)
			r.Record(sample(int64(100 * (w + 1))))
			s.Run(RunMeta{Label: fmt.Sprintf("r%d", w), Seed: uint64(w)}, r)
		}(w)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Errorf("got %d lines", len(lines))
	}
}

func TestSinkFor(t *testing.T) {
	var b strings.Builder
	if s, _ := SinkFor("x.jsonl", &b); s == nil {
		t.Fatal("nil sink")
	} else if _, ok := s.(*JSONLSink); !ok {
		t.Errorf("x.jsonl -> %T", s)
	}
	if s, _ := SinkFor("x.csv", &b); s == nil {
		t.Fatal("nil sink")
	} else if _, ok := s.(*CSVSink); !ok {
		t.Errorf("x.csv -> %T", s)
	}
}

func TestSinkStickyError(t *testing.T) {
	s := NewCSVSink(failWriter{})
	r := NewRecorder(100)
	r.Record(sample(100))
	s.Run(RunMeta{Label: "x"}, r)
	if s.Err() == nil {
		t.Fatal("expected sticky error")
	}
	s.Run(RunMeta{Label: "y"}, r) // must not panic
	if s.Err() == nil {
		t.Fatal("error not sticky")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func observation(cycle int64, victim message.ID) detect.Observation {
	return detect.Observation{
		Cycle: cycle,
		Deadlock: &cwg.Deadlock{
			KnotVCs:     []message.VC{1, 2, 3},
			DeadlockSet: []message.ID{4, 5, 6},
			ResourceSet: []message.VC{1, 2, 3, 7},
			Dependent:   []message.ID{9},
			KnotCycles:  2,
			Kind:        cwg.MultiCycle,
		},
		Victim: victim,
		Policy: detect.OldestBlocked,
	}
}

func TestIncidentLogCapture(t *testing.T) {
	ring := &trace.Ring{Cap: 4}
	for c := int64(1); c <= 6; c++ {
		ring.Trace(trace.Event{Cycle: c, Kind: trace.Blocked, Msg: message.ID(c), VC: message.NoVC, Node: 0})
	}
	l := &IncidentLog{LastEvents: ring, MaxEvents: 2}
	l.ObserveDeadlock(observation(500, 4))
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	inc := l.Incidents()[0]
	if inc.DeadlockSet != 3 || inc.ResourceSet != 4 || inc.KnotVCs != 3 || inc.Dependent != 1 {
		t.Errorf("set sizes wrong: %+v", inc)
	}
	if inc.Kind != "multi-cycle" || inc.KnotCycles != 2 {
		t.Errorf("kind/density wrong: %+v", inc)
	}
	if inc.DrainCycles != -1 || inc.RecoveredCycle != -1 {
		t.Errorf("drain should be pending: %+v", inc)
	}
	if len(inc.Events) != 2 || inc.Events[1].Cycle != 6 {
		t.Errorf("expected last 2 ring events, got %+v", inc.Events)
	}

	l.RecoveryDone(4, 532)
	inc = l.Incidents()[0]
	if inc.RecoveredCycle != 532 || inc.DrainCycles != 32 {
		t.Errorf("drain not recorded: %+v", inc)
	}
	l.RecoveryDone(999, 600) // unknown victim: ignored
}

func TestIncidentLogJSONL(t *testing.T) {
	l := &IncidentLog{}
	l.ObserveDeadlock(observation(100, -1))
	l.ObserveDeadlock(observation(200, 5))
	l.RecoveryDone(5, 260)
	var b strings.Builder
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var inc Incident
	if err := json.Unmarshal([]byte(lines[1]), &inc); err != nil {
		t.Fatal(err)
	}
	if inc.Seq != 1 || inc.Cycle != 200 || inc.DrainCycles != 60 {
		t.Errorf("decoded incident wrong: %+v", inc)
	}
	if inc.Policy != "oldest" {
		t.Errorf("policy = %q", inc.Policy)
	}
}

func TestLiveStoreSnapshot(t *testing.T) {
	var l Live
	l.Store(sample(700))
	if got := l.Snapshot(); got != sample(700) {
		t.Errorf("Snapshot = %+v", got)
	}
	var b strings.Builder
	if err := l.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"flexsim_cycle 700", "flexsim_active_messages 10",
		"flexsim_blocked_messages 3", "flexsim_deadlocks_total 2",
		"# TYPE flexsim_delivered_messages_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepProgress(t *testing.T) {
	p := NewSweepProgress([]string{"fig5", "fig6"})
	p.Start("fig5")
	p.Settled("done")
	p.Settled("done")
	p.Finish("fig5", 1500*time.Millisecond)
	p.Start("fig6")
	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var v struct {
		Experiments []ExperimentStatus `json:"experiments"`
		Done        int                `json:"experiments_done"`
		Total       int                `json:"experiments_total"`
		RunsDone    int64              `json:"runs_done"`
	}
	if err := json.Unmarshal([]byte(b.String()), &v); err != nil {
		t.Fatal(err)
	}
	if v.Total != 2 || v.Done != 1 || v.RunsDone != 2 {
		t.Errorf("progress = %+v", v)
	}
	if v.Experiments[0].State != Done || v.Experiments[0].Seconds != 1.5 {
		t.Errorf("fig5 status = %+v", v.Experiments[0])
	}
	if v.Experiments[1].State != Running {
		t.Errorf("fig6 status = %+v", v.Experiments[1])
	}

	b.Reset()
	if err := p.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "flexsim_sweep_runs_done_total 2") {
		t.Errorf("sweep prometheus wrong:\n%s", b.String())
	}
}

func TestServerEndpoints(t *testing.T) {
	var live Live
	live.Store(sample(42))
	sweep := NewSweepProgress([]string{"fig5"})
	srv, err := Serve("127.0.0.1:0", WithLive(&live), WithSweep(sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "flexsim_cycle 42") ||
		!strings.Contains(body, "flexsim_sweep_experiments_total 1") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get("/progress"); code != 200 || !strings.Contains(body, `"fig5"`) {
		t.Errorf("/progress = %d %q", code, body)
	}
}

func TestServerWithoutSweep(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", WithLive(&Live{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/progress without sweep = %d", resp.StatusCode)
	}
}

func TestServerBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999"); err == nil {
		t.Error("bad address accepted")
	}
}

// TestSweepProgressOutcomeCounters: cached, failed and cancelled runs are
// counted separately from completed ones and surface in both /progress JSON
// and the Prometheus exposition.
func TestSweepProgressOutcomeCounters(t *testing.T) {
	p := NewSweepProgress([]string{"fig5", "fig6"})
	p.Start("fig5")
	for _, st := range []string{"done", "cached", "cached", "failed", "cancelled", "cancelled", "cancelled"} {
		p.Settled(st)
	}
	p.Cancel("fig6")

	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var v struct {
		Experiments   []ExperimentStatus `json:"experiments"`
		RunsDone      int64              `json:"runs_done"`
		RunsCached    int64              `json:"runs_cached"`
		RunsFailed    int64              `json:"runs_failed"`
		RunsCancelled int64              `json:"runs_cancelled"`
	}
	if err := json.Unmarshal([]byte(b.String()), &v); err != nil {
		t.Fatal(err)
	}
	if v.RunsDone != 1 || v.RunsCached != 2 || v.RunsFailed != 1 || v.RunsCancelled != 3 {
		t.Errorf("run counters = %+v", v)
	}
	if v.Experiments[1].State != Cancelled {
		t.Errorf("fig6 state = %s, want cancelled", v.Experiments[1].State)
	}

	b.Reset()
	if err := p.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flexsim_sweep_runs_done_total 1",
		"flexsim_sweep_runs_cached_total 2",
		"flexsim_sweep_runs_failed_total 1",
		"flexsim_sweep_runs_cancelled_total 3",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, b.String())
		}
	}
}
