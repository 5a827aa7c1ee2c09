package sweepsvc

// Fleet integration tests: the coordinator drives real worker processes
// (this test binary re-exec'd) over HTTP, sharing one content-addressed
// store directory. The SIGKILL test pins the headline robustness property:
// killing a worker mid-point re-runs that point exactly once on a surviving
// worker and the sweep still completes.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/obs"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

const (
	fleetDirEnv  = "FLEXSIM_FLEET_WORKER_DIR"
	fleetAddrEnv = "FLEXSIM_FLEET_WORKER_ADDRFILE"
	fleetNameEnv = "FLEXSIM_FLEET_WORKER_NAME"
	fleetSlowEnv = "FLEXSIM_FLEET_WORKER_SLOW_MS"
)

// startFleetWorker re-execs this binary as a worker process serving the
// specv1 run protocol on a random port, returning its base URL.
func startFleetWorker(t *testing.T, storeDir, name string, slow time.Duration) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetWorkerKill$", "-test.v=false")
	cmd.Env = append(os.Environ(),
		fleetDirEnv+"="+storeDir,
		fleetAddrEnv+"="+addrFile,
		fleetNameEnv+"="+name,
		fmt.Sprintf("%s=%d", fleetSlowEnv, slow.Milliseconds()))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker %s: %v", name, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, "http://" + string(b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker %s never published its address", name)
	return nil, ""
}

// runFleetWorkerChild is the re-exec'd worker process: a Worker with a slow
// stub executor on the shared store, serving until the parent kills it.
func runFleetWorkerChild(t *testing.T) {
	storeDir := os.Getenv(fleetDirEnv)
	slowMS, _ := strconv.Atoi(os.Getenv(fleetSlowEnv))
	cache, err := runner.Open(storeDir)
	if err != nil {
		t.Fatalf("worker store: %v", err)
	}
	wk := &Worker{
		Name:  os.Getenv(fleetNameEnv),
		Cache: cache,
		Run: func(ctx context.Context, cfg sim.Config) (*stats.Result, error) {
			select {
			case <-time.After(time.Duration(slowMS) * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(cfg), nil
		},
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", wk.Handler()))
	if err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	defer srv.Close()
	if err := os.WriteFile(os.Getenv(fleetAddrEnv), []byte(srv.Addr()), 0o644); err != nil {
		t.Fatalf("worker addr file: %v", err)
	}
	time.Sleep(2 * time.Minute) // the parent SIGKILLs us long before this
}

// TestFleetWorkerKill: SIGKILL one of two fleet workers mid-sweep. The
// coordinator must re-run the interrupted point exactly once on the
// surviving worker, gate the dead worker on /healthz instead of feeding it
// more points, and finish the sweep with every point settled.
func TestFleetWorkerKill(t *testing.T) {
	if os.Getenv(fleetDirEnv) != "" {
		runFleetWorkerChild(t)
		return
	}
	if testing.Short() {
		t.Skip("fleet process test skipped in -short")
	}

	storeDir := t.TempDir()
	const slow = 300 * time.Millisecond
	victim, victimURL := startFleetWorker(t, storeDir, "victim", slow)
	_, survivorURL := startFleetWorker(t, storeDir, "survivor", slow)

	s, err := New(Config{
		Cache:       openCache(t, storeDir),
		Fleet:       []string{victimURL, survivorURL},
		HealthEvery: 50 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(testSpec("fleet", 8))
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// Kill the victim once the sweep is in full flight: after the first
	// point settles, both workers are already executing their next point.
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	deadline := time.After(60 * time.Second)
	var final *specv1.SweepStatus
loop:
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				break loop
			}
			if ev.Type == "point" && !killed {
				killed = true
				if err := victim.Process.Kill(); err != nil {
					t.Fatalf("kill victim: %v", err)
				}
			}
			if ev.Type == "done" {
				final = ev.Stat
				break loop
			}
		case <-deadline:
			cancel()
			st, _ := s.Status(id)
			t.Fatalf("fleet sweep did not settle: %+v", st)
		}
	}
	cancel()
	if final == nil {
		var err error
		if final, err = s.Status(id); err != nil {
			t.Fatal(err)
		}
	}

	if got := final.Done + final.Cached; got != final.Total || final.Failed != 0 {
		t.Fatalf("fleet sweep after kill: %+v", final)
	}
	if final.Retries < 1 {
		t.Fatalf("no retries recorded after worker kill: %+v", final)
	}
	results, err := s.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, pr := range results {
		if len(pr.Result) == 0 && pr.Status != specv1.StatusFailed {
			t.Fatalf("point %d settled without bytes: %+v", pr.Index, pr)
		}
		if pr.Attempts > 1 {
			retried++
			if pr.Attempts != 2 {
				t.Errorf("point %d re-ran %d times, want exactly one retry", pr.Index, pr.Attempts)
			}
			if pr.Worker != "survivor" {
				t.Errorf("retried point %d settled on %q, want the survivor", pr.Index, pr.Worker)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no point was retried after the worker kill")
	}
}

// TestFleetByteIdentity: a sweep executed on a fleet worker (real
// simulations) and the same spec run locally through the shared store
// produce byte-identical result payloads — the wire carries the store's
// bytes end to end, never a re-encode.
func TestFleetByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short")
	}
	storeDir := t.TempDir()

	// In-process "fleet": a real Worker served over HTTP with the real
	// simulator, sharing the store with the coordinator.
	workerCache := openCache(t, storeDir)
	wk := &Worker{Name: "w1", Cache: workerCache}
	wsrv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", wk.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	defer wsrv.Close()

	coordCache := openCache(t, storeDir)
	s, err := New(Config{Cache: coordCache, Fleet: []string{"http://" + wsrv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := sim.Quick()
	base.K = 4
	base.WarmupCycles = 100
	base.MeasureCycles = 300
	base.Label = "ident"
	spec := specv1.LoadSpec("ident", base, []float64{0.2, 0.5})

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = awaitDone(t, s, st.ID)
	if st.Done != 2 {
		t.Fatalf("fleet sweep: %+v", st)
	}
	fleetResults, err := s.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The local path of the acceptance check: charsweep-style execution of
	// the same spec against the same store serves every point from it.
	localCache := openCache(t, storeDir)
	if localCache.Len() != 2 {
		t.Fatalf("store holds %d results, want 2", localCache.Len())
	}
	configs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range configs {
		raw, ok := localCache.GetRaw(runner.Key(cfg))
		if !ok {
			t.Fatalf("point %d not served from the shared store", i)
		}
		if string(raw) != string(fleetResults[i].Result) {
			t.Fatalf("point %d: local store bytes differ from fleet result bytes", i)
		}
	}
}

// TestFleetResultNotAnObject: an executor that answers done or cached with
// no result, or with null, has not delivered a result; taken as one, settle
// would store null and every later lookup would serve zeros. It is a
// retryable protocol failure, whichever executor answered: nothing is
// settled or stored.
func TestFleetResultNotAnObject(t *testing.T) {
	s, _ := traceService(t, Config{})
	s.queue.close() // this test is the only worker loop
	var execs []executor
	for _, body := range []string{
		`{"schema_version":1,"status":"done","result":null}`,
		`{"schema_version":1,"status":"cached","persisted":true,"result":null}`,
		`{"schema_version":1,"status":"done"}`,
		`{"schema_version":1,"status":"done","result":[1]}`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(body))
		}))
		t.Cleanup(srv.Close)
		execs = append(execs, newHTTPExec(srv.URL, 0))
	}
	execs = append(execs, &fakeExec{id: "in-process", fn: func(sim.Config) (*specv1.RunResponse, error) {
		return &specv1.RunResponse{Status: specv1.StatusDone, Result: []byte("null")}, nil
	}})
	for _, ex := range execs {
		sw, err := s.newSweep("s1-null", testSpec("null", 1))
		if err != nil {
			t.Fatal(err)
		}
		retry, cause := s.runTask(ex, &task{sw: sw, index: 0})
		_, stored := s.cfg.Cache.GetRaw(sw.keys[0])
		if !retry || cause != causeProtocol || sw.isSettled(0) || stored {
			t.Errorf("%s: retry %v, cause %q, settled %v, stored %v; want a retryable %q failure", ex.name(), retry, cause, sw.isSettled(0), stored, causeProtocol)
		}
	}
}

// TestFleetWorkerStoreWriteFails: a worker whose store append fails (a full
// disk; here, a descriptor closed under it) must answer persisted=false, so
// the coordinator writes the bytes itself. The parent answered true, the
// coordinator adopted without writing, and the journaled completion had no
// bytes in the store.
func TestFleetWorkerStoreWriteFails(t *testing.T) {
	storeDir := t.TempDir()
	workerCache, err := runner.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	workerCache.Close() // every append now fails
	wk := &Worker{Name: "w1", Cache: workerCache, Run: stubRun}
	wsrv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", wk.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	defer wsrv.Close()

	base := "http://" + wsrv.Addr()
	probe := sim.Quick()
	probe.Label = "probe"
	if r, err := newHTTPExec(base, 0).run(context.Background(), probe); err != nil || r.Status != specv1.StatusDone || r.Persisted {
		t.Fatalf("worker with a dead store answered %+v, %v; want done, not persisted", r, err)
	}

	s, err := New(Config{Cache: openCache(t, storeDir), Fleet: []string{base}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testSpec("dead-store", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st = awaitDone(t, s, st.ID); st.Done != 2 {
		t.Fatalf("fleet sweep: %+v", st)
	}
	s.Close()
	if n := openCache(t, storeDir).Len(); n != 2 {
		t.Fatalf("store holds %d of the sweep's 2 results after the coordinator settled them", n)
	}
}
