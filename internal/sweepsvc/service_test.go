package sweepsvc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/obs"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// stubResult fabricates a deterministic result for a configuration, so the
// service tests exercise scheduling/dedup/persistence without simulating.
func stubResult(cfg sim.Config) *stats.Result {
	return &stats.Result{Label: cfg.Label, Load: cfg.Load, Seed: cfg.Seed, Delivered: 1 + int64(cfg.Seed%97)}
}

func stubRun(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
	return stubResult(cfg), nil
}

// testSpec builds a small load-sweep spec over distinct configurations.
func testSpec(name string, n int) *specv1.Spec {
	base := sim.Quick()
	base.Label = name
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = 0.1 * float64(i+1)
	}
	return specv1.LoadSpec(name, base, loads)
}

func openCache(t *testing.T, dir string) *runner.Cache {
	t.Helper()
	c, err := runner.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// awaitDone subscribes and blocks until the sweep settles.
func awaitDone(t *testing.T, s *Service, id string) *specv1.SweepStatus {
	t.Helper()
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				st, err := s.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != specv1.SweepDone {
					t.Fatalf("subscription closed with sweep %s still %s", id, st.State)
				}
				return st
			}
			if ev.Type == "done" {
				return ev.Stat
			}
		case <-deadline:
			st, _ := s.Status(id)
			t.Fatalf("sweep %s did not settle: %+v", id, st)
		}
	}
}

// TestSubmitDedupesThroughStore: a sweep executes every point once; an
// identical resubmission settles entirely from the shared store with zero
// executions — the acceptance shape of "second submission reports 0 misses".
func TestSubmitDedupesThroughStore(t *testing.T) {
	var executions atomic.Int64
	s, err := New(Config{
		Cache:        openCache(t, t.TempDir()),
		LocalWorkers: 3,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			executions.Add(1)
			return stubRun(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := testSpec("dedupe", 6)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = awaitDone(t, s, st.ID)
	if st.Done != 6 || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("first sweep: %+v", st)
	}
	if got := executions.Load(); got != 6 {
		t.Fatalf("first sweep executed %d points, want 6", got)
	}

	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 = awaitDone(t, s, st2.ID)
	if st2.Cached != 6 || st2.Done != 0 {
		t.Fatalf("resubmission not fully cache-served: %+v", st2)
	}
	if got := executions.Load(); got != 6 {
		t.Fatalf("resubmission executed %d extra points, want 0", got-6)
	}

	// Results are byte-identical across the two sweeps: the cached bytes
	// are the first sweep's bytes.
	r1, err := s.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Results(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if string(r1[i].Result) != string(r2[i].Result) {
			t.Fatalf("point %d: cached bytes differ from executed bytes", i)
		}
		if r1[i].Key != r2[i].Key {
			t.Fatalf("point %d: keys differ across identical sweeps", i)
		}
	}
}

// TestPanicRetries: an isolated panic is treated like a crashed worker —
// the point re-runs and succeeds, with attempts and retries recorded.
func TestPanicRetries(t *testing.T) {
	var calls sync.Map // key -> *atomic.Int64
	s, err := New(Config{
		Cache:        openCache(t, t.TempDir()),
		LocalWorkers: 2,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			v, _ := calls.LoadOrStore(runner.Key(cfg), new(atomic.Int64))
			if v.(*atomic.Int64).Add(1) == 1 && cfg.Load > 0.25 {
				panic(fmt.Sprintf("injected crash at load %v", cfg.Load))
			}
			return stubRun(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(testSpec("panicky", 3)) // loads 0.1, 0.2, 0.3: one panics
	if err != nil {
		t.Fatal(err)
	}
	st = awaitDone(t, s, st.ID)
	if st.Done != 3 || st.Failed != 0 {
		t.Fatalf("sweep after panic: %+v", st)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	results, err := s.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, pr := range results {
		if pr.Attempts > 1 {
			retried++
			if pr.Attempts != 2 {
				t.Fatalf("retried point ran %d times, want 2", pr.Attempts)
			}
		}
	}
	if retried != 1 {
		t.Fatalf("%d points retried, want 1", retried)
	}
}

// TestFleetPanicRetries: a panic on a fleet worker is retried as an
// in-process one is. The same always-panicking point ends failed after
// MaxRetries+1 attempts wherever it runs, with one retry cause per retry:
// "panic" in-process, "5xx" from a worker that answers the panic with 500.
func TestFleetPanicRetries(t *testing.T) {
	const maxRetries = 2
	panicky := func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
		panic("injected crash")
	}
	wk := &Worker{Name: "w1", Run: panicky}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", wk.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		name  string
		cfg   Config
		cause string
	}{
		{"in-process", Config{LocalWorkers: 1, Run: panicky}, causePanic},
		{"fleet", Config{Fleet: []string{srv.URL}, HealthEvery: time.Millisecond}, cause5xx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Cache = openCache(t, t.TempDir())
			cfg.MaxRetries = maxRetries
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, err := s.Submit(testSpec("panicky-"+tc.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			st = awaitDone(t, s, st.ID)
			if st.Failed != 1 || st.Retries != maxRetries || st.RetryCauses[tc.cause] != maxRetries || len(st.RetryCauses) != 1 {
				t.Fatalf("sweep: %+v, want 1 failed after %d retries, all %s", st, maxRetries, tc.cause)
			}
			results, err := s.Results(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if pr := results[0]; pr.Status != specv1.StatusFailed || pr.Attempts != maxRetries+1 || !strings.Contains(pr.Error, "injected crash") {
				t.Fatalf("point: status %s, %d attempt(s), error %q; want failed after %d", pr.Status, pr.Attempts, pr.Error, maxRetries+1)
			}
		})
	}
}

// TestPointTimeoutRetries: a point that outlives Config.PointTimeout is
// retried with cause "timeout" wherever it runs, and ends failed after
// MaxRetries+1 attempts. A fleet worker's own deadline must not fire before
// the coordinator's, or its 503 would be counted as a "5xx" retry.
func TestPointTimeoutRetries(t *testing.T) {
	const maxRetries = 3
	blocks := func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	wk := &Worker{Name: "w1", Run: blocks}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", wk.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"in-process", Config{LocalWorkers: 1, Run: blocks}},
		{"fleet", Config{Fleet: []string{srv.URL}, HealthEvery: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Cache = openCache(t, t.TempDir())
			cfg.MaxRetries = maxRetries
			cfg.PointTimeout = 30 * time.Millisecond
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, err := s.Submit(testSpec("slow-"+tc.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			st = awaitDone(t, s, st.ID)
			if st.Failed != 1 || st.Retries != maxRetries || st.RetryCauses[causeTimeout] != maxRetries || len(st.RetryCauses) != 1 {
				t.Fatalf("sweep: %+v, want 1 failed after %d retries, all %s", st, maxRetries, causeTimeout)
			}
		})
	}
}

// TestPermanentFailure: a config error fails its point once, with no
// retries, and the rest of the sweep completes.
func TestPermanentFailure(t *testing.T) {
	s, err := New(Config{
		Cache:        openCache(t, t.TempDir()),
		LocalWorkers: 2,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			if cfg.Load > 0.15 && cfg.Load < 0.25 {
				return nil, errors.New("synthetic config error")
			}
			return stubRun(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(testSpec("failing", 3))
	if err != nil {
		t.Fatal(err)
	}
	st = awaitDone(t, s, st.ID)
	if st.Done != 2 || st.Failed != 1 || st.Retries != 0 {
		t.Fatalf("sweep with permanent failure: %+v", st)
	}
	results, _ := s.Results(st.ID)
	for _, pr := range results {
		if pr.Status == specv1.StatusFailed {
			if pr.Attempts != 1 || pr.Error == "" {
				t.Fatalf("failed point: %+v", pr)
			}
		}
	}
}

// TestRestartResume: a coordinator stopped mid-sweep resumes from its
// journal with zero duplicate executions — points journaled as complete are
// served from the store, only the remainder runs.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "store")
	const total, beforeRestart = 6, 3

	var firstExecs atomic.Int64
	s1, err := New(Config{
		Cache:        openCache(t, cacheDir),
		JournalPath:  journalPath,
		LocalWorkers: 1, // deterministic: exactly the first 3 pulls succeed
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			if firstExecs.Add(1) > beforeRestart {
				<-ctx.Done() // simulate a long run interrupted by shutdown
				return nil, ctx.Err()
			}
			return stubRun(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(testSpec("resume", total))
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	waitFor(t, func() bool {
		st, err := s1.Status(id)
		return err == nil && st.Settled() >= beforeRestart
	})
	s1.Close()

	var secondExecs atomic.Int64
	s2, err := New(Config{
		Cache:        openCache(t, cacheDir),
		JournalPath:  journalPath,
		LocalWorkers: 2,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			secondExecs.Add(1)
			return stubRun(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	st2 := awaitDone(t, s2, id) // same sweep id survives the restart
	if st2.Done != total || st2.Failed != 0 {
		t.Fatalf("resumed sweep: %+v", st2)
	}
	if got := secondExecs.Load(); got != total-beforeRestart {
		t.Fatalf("restart executed %d points, want exactly %d (zero duplicates)", got, total-beforeRestart)
	}
	results, err := s2.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != total {
		t.Fatalf("resumed sweep has %d results, want %d", len(results), total)
	}
	for _, pr := range results {
		if len(pr.Result) == 0 {
			t.Fatalf("point %d settled without result bytes: %+v", pr.Index, pr)
		}
	}
}

// TestRestartAfterTornJournal: a coordinator killed mid-append leaves half a
// journal line. The next coordinator's first record — the sweep submission —
// must not be glued to it: the parent wrote `{"type":"poi{"type":"sweep",…`,
// and the coordinator after that answered "no such sweep" for a sweep its
// predecessor had accepted and finished.
func TestRestartAfterTornJournal(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "store")
	if err := os.WriteFile(journalPath, []byte(`{"type":"poi`), 0o644); err != nil {
		t.Fatal(err)
	}
	const total = 3

	s1, err := New(Config{Cache: openCache(t, cacheDir), JournalPath: journalPath, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(testSpec("torn", total))
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s1, st.ID)
	s1.Close()

	var execs atomic.Int64
	s2, err := New(Config{
		Cache: openCache(t, cacheDir), JournalPath: journalPath, LocalWorkers: 1,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			execs.Add(1)
			return stubRun(ctx, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.Status(st.ID)
	if err != nil {
		t.Fatalf("restarted coordinator lost the sweep: %v", err)
	}
	if sweeps, settled, requeued := s2.ReplayStatus(); sweeps != 1 || settled != total || requeued != 0 {
		t.Fatalf("replay: %d sweep(s), %d settled, %d requeued; want 1, %d, 0", sweeps, settled, requeued, total)
	}
	if st2.Settled() != total || execs.Load() != 0 {
		t.Fatalf("replayed sweep: %+v after %d re-execution(s); want %d settled, none re-run", st2, execs.Load(), total)
	}
}

// getResults returns the body of a sweep's /results on s's API.
func getResults(t *testing.T, s *Service, id string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.APIHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/sweeps/"+id+"/results", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/results = %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestRestartKeepsReportedWorker: a fleet worker names itself (w1) apart
// from the URL the coordinator dispatches to. A restarted coordinator must
// serve the same /results for the sweep, byte for byte: the replay used to
// take the journal's executor URL as the point's worker.
func TestRestartKeepsReportedWorker(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "store")
	wk := &Worker{Name: "w1", Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
		if cfg.Load > 0.15 && cfg.Load < 0.25 {
			return nil, errors.New("synthetic config error")
		}
		return stubRun(ctx, cfg)
	}}
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	s1, err := New(Config{Cache: openCache(t, cacheDir), JournalPath: journalPath, Fleet: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(testSpec("reported", 3))
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitDone(t, s1, st.ID); final.Done != 2 || final.Failed != 1 {
		t.Fatalf("first coordinator: %+v", final)
	}
	live := getResults(t, s1, st.ID)
	if !strings.Contains(live, `"worker":"w1"`) {
		t.Fatalf("live results do not name w1:\n%s", live)
	}
	s1.Close()

	s2, err := New(Config{Cache: openCache(t, cacheDir), JournalPath: journalPath, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if replayed := getResults(t, s2, st.ID); replayed != live {
		t.Errorf("/results changed across the restart:\n live     %s\n replayed %s", live, replayed)
	}
	for _, r := range journalRecords(t, journalPath) {
		if r.Kind == "point" && (r.Worker != srv.URL || r.Reported != "w1") {
			t.Errorf("terminal record names worker %q, reported %q; want %q, w1", r.Worker, r.Reported, srv.URL)
		}
	}
}

// TestOneTally: a sweep settling points done, cached and failed is counted
// once, and /metrics' two families and the sweep's status agree on every
// status.
func TestOneTally(t *testing.T) {
	cache := openCache(t, t.TempDir())
	spec := testSpec("tally", 6)
	configs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs[:2] { // two points the store already holds
		raw, err := specv1.EncodeResult(stubResult(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.PutRaw(runner.Key(c), c.Label, c.Load, raw); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Cache: cache, LocalWorkers: 2,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			if cfg.Load > 0.25 && cfg.Load < 0.35 {
				return nil, errors.New("synthetic config error")
			}
			return stubRun(ctx, cfg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = awaitDone(t, s, st.ID)

	rec := httptest.NewRecorder()
	obs.NewMux(obs.WithSweep(s.Progress()), obs.WithFleet(s.Metrics())).
		ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for status, want := range map[string]int{"done": 3, "cached": 2, "failed": 1} {
		got := map[string]int{"done": st.Done, "cached": st.Cached, "failed": st.Failed}[status]
		runs := fmt.Sprintf("flexsim_sweep_runs_%s_total %d\n", status, want)
		points := fmt.Sprintf("flexsweep_points_total{status=%q} %d\n", status, want)
		if got != want || !strings.Contains(metrics, runs) || !strings.Contains(metrics, points) {
			t.Errorf("%s: status says %d; /metrics has %q: %t, %q: %t", status, got,
				runs, strings.Contains(metrics, runs), points, strings.Contains(metrics, points))
		}
	}
	if t.Failed() {
		t.Logf("status %+v\n%s", st, metrics)
	}
}

// TestStatusCountsMatchResults: a status is read off counters kept as points
// settle, not recounted from the results. After a sweep that settles points
// every way — served from the store, failed, executed, replayed from the
// journal by a restarted coordinator, executed after the restart — the
// counters must be what a recount of the results gives.
func TestStatusCountsMatchResults(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "store")
	const total, cached, beforeRestart = 8, 2, 5

	check := func(s *Service, id string, want specv1.SweepStatus) {
		t.Helper()
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		var recount specv1.SweepStatus
		for _, pr := range results {
			switch pr.Status {
			case specv1.StatusCached:
				recount.Cached++
			case specv1.StatusFailed:
				recount.Failed++
			case specv1.StatusCancelled:
				recount.Cancelled++
			default:
				recount.Done++
			}
		}
		for _, c := range [][3]int{{st.Done, recount.Done, want.Done}, {st.Cached, recount.Cached, want.Cached},
			{st.Failed, recount.Failed, want.Failed}, {st.Cancelled, recount.Cancelled, want.Cancelled}} {
			if c[0] != c[1] || c[0] != c[2] {
				t.Fatalf("status %+v; recount of %d results %+v; want %+v", st, len(results), recount, want)
			}
		}
	}

	var execs atomic.Int64
	run := func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
		if cfg.Load > 0.25 && cfg.Load < 0.35 {
			return nil, errors.New("synthetic config error")
		}
		if execs.Add(1) > beforeRestart-cached-1 {
			<-ctx.Done() // in flight at shutdown
			return nil, ctx.Err()
		}
		return stubRun(ctx, cfg)
	}
	s1, err := New(Config{Cache: openCache(t, cacheDir), JournalPath: journalPath, LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(testSpec("mixed", cached))
	if err != nil {
		t.Fatal(err)
	}
	first := st.ID
	awaitDone(t, s1, first)
	s1.Close()

	s2, err := New(Config{Cache: openCache(t, cacheDir), JournalPath: journalPath, LocalWorkers: 1, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s2.Submit(testSpec("mixed", total)); err != nil {
		t.Fatal(err)
	}
	id := st.ID
	waitFor(t, func() bool {
		st, err := s2.Status(id)
		return err == nil && st.Settled() >= beforeRestart
	})
	check(s2, id, specv1.SweepStatus{Done: 2, Cached: cached, Failed: 1})
	s2.Close()

	s3, err := New(Config{Cache: openCache(t, cacheDir), JournalPath: journalPath, LocalWorkers: 2, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	check(s3, first, specv1.SweepStatus{Done: cached}) // the first sweep, all replayed
	awaitDone(t, s3, id)
	check(s3, id, specv1.SweepStatus{Done: total - cached - 1, Cached: cached, Failed: 1})
}

// TestDrainRefusesSubmissions: a draining service refuses new sweeps but
// lets in-flight points finish within the grace period.
func TestDrainRefusesSubmissions(t *testing.T) {
	s, err := New(Config{Cache: openCache(t, t.TempDir()), LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testSpec("drain", 2))
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s, st.ID)
	s.Drain(5 * time.Second)
	if _, err := s.Submit(testSpec("late", 1)); !errors.Is(err, errDraining) {
		t.Fatalf("submit after drain: %v, want draining error", err)
	}
}

// TestSubscribeManyAndLate: many concurrent subscribers each receive the
// terminal done event (or clean closure), and a subscriber arriving after
// completion gets done immediately.
func TestSubscribeManyAndLate(t *testing.T) {
	s, err := New(Config{Cache: openCache(t, t.TempDir()), LocalWorkers: 2, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(testSpec("subs", 4))
	if err != nil {
		t.Fatal(err)
	}

	const subscribers = 8
	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		ch, cancel, err := s.Subscribe(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			for ev := range ch {
				if ev.Type == "done" {
					return
				}
			}
			// Closure without done is acceptable only for slow subscribers;
			// these drain promptly, so require the event.
			errs <- errors.New("stream closed without done event")
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ch, cancel, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case ev := <-ch:
		if ev.Type != "done" || ev.Stat == nil || ev.Stat.State != specv1.SweepDone {
			t.Fatalf("late subscriber got %+v, want immediate done", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late subscriber got nothing")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 30s")
}
