package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/obs"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/sweepsvc"
)

// minReps is the least number of timed repetitions a run reports a median of.
const minReps = 7

// setups is how many times a run sets up (each time from nothing, ending
// with the untimed warm repetition); setup_s is the median.
const setups = 3

// instance is one workload generated from one seed, with its scratch files.
type instance struct {
	w        workload
	seed     uint64
	dir      string // scratch directory of this process, removed at exit
	spec     *specv1.Spec
	configs  []sim.Config
	specPath string
	storeDir string // warm: the store the cold fill wrote
	// cold is the cold fill's output (warm only): every warm repetition must
	// return the same result bytes.
	cold []specv1.PointResult
	n    int // fresh-directory counter
}

func (in *instance) freshDir(prefix string) (string, error) {
	in.n++
	d := filepath.Join(in.dir, fmt.Sprintf("%s-%d", prefix, in.n))
	return d, os.MkdirAll(d, 0o755)
}

// setup does everything that precedes the first timed repetition except the
// warm repetition itself: generate the spec from the seed, write it as the
// file charsweep would read, and for the warm workload fill a fresh store
// with a cold run.
func (in *instance) setup() error {
	in.spec = in.w.spec(in.seed)
	configs, err := in.spec.Configs()
	if err != nil {
		return err
	}
	in.configs = configs
	dir, err := in.freshDir("setup")
	if err != nil {
		return err
	}
	in.specPath = filepath.Join(dir, "spec.json")
	var buf bytes.Buffer
	if err := specv1.EncodeSpec(&buf, in.spec); err != nil {
		return err
	}
	if err := os.WriteFile(in.specPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if in.w.kind != warm {
		return nil
	}
	in.storeDir = filepath.Join(dir, "store")
	out := filepath.Join(dir, "cold.jsonl")
	if err := localRun(in.specPath, out, in.storeDir, 1); err != nil {
		return fmt.Errorf("cold fill: %w", err)
	}
	in.cold, err = readResults(out)
	return err
}

// rep runs the workload's timed path once and returns its wall time and the
// results it wrote. Whatever a repetition needs fresh (output file, fleet,
// store) is made before the clock starts and torn down after it stops.
func (in *instance) rep() (time.Duration, []specv1.PointResult, error) {
	dir, err := in.freshDir("rep")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "results.jsonl")
	var wall time.Duration
	switch in.w.kind {
	case engine, warm:
		start := time.Now()
		err = localRun(in.specPath, out, in.storeDir, 1)
		wall = time.Since(start)
	case fleet:
		var fl *fleetEnv
		if fl, err = startFleet(dir); err != nil {
			return 0, nil, err
		}
		start := time.Now()
		_, err = fl.sweep(in.spec, out, nil)
		wall = time.Since(start)
		fl.stop()
	}
	if err != nil {
		return 0, nil, err
	}
	results, err := readResults(out)
	if err == nil && in.w.kind == warm {
		err = in.servedFromStore(results)
	}
	return wall, results, err
}

// servedFromStore checks a warm run's output: every point settled cached,
// with byte for byte the result the cold fill returned.
func (in *instance) servedFromStore(results []specv1.PointResult) error {
	if len(results) != len(in.cold) {
		return fmt.Errorf("warm run: %d points, cold fill %d", len(results), len(in.cold))
	}
	for i, pr := range results {
		if pr.Status != specv1.StatusCached {
			return fmt.Errorf("warm run: point %d (key %s) settled %q, want cached", i, pr.Key, pr.Status)
		}
		if !bytes.Equal(pr.Result, in.cold[i].Result) {
			return fmt.Errorf("warm run: point %d (key %s) differs from the cold fill", i, pr.Key)
		}
	}
	return nil
}

// localRun is the sequence `charsweep -spec specPath [-cache-dir storeDir]
// -results-out outPath` executes: open the store, decode the spec file, run
// it, convert to the wire form preferring the store's bytes, write JSONL.
func localRun(specPath, outPath, storeDir string, parallelism int) (err error) {
	opts := []core.Option{core.WithParallelism(parallelism)}
	var cache *core.Cache
	if storeDir != "" {
		if cache, err = runner.Open(storeDir); err != nil {
			return err
		}
		defer func() {
			if cerr := cache.Close(); err == nil {
				err = cerr
			}
		}()
		opts = append(opts, core.WithCache(cache))
	}
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	spec, err := specv1.DecodeSpec(f)
	f.Close()
	if err != nil {
		return err
	}
	pts, err := core.RunSpec(context.Background(), spec, opts...)
	if err != nil {
		return err
	}
	configs, err := spec.Configs()
	if err != nil {
		return err
	}
	results, err := core.PointResults(configs, pts)
	if err != nil {
		return err
	}
	if cache != nil {
		for i := range results {
			if raw, ok := cache.GetRaw(results[i].Key); ok {
				results[i].Result = raw
			}
		}
	}
	return writeResults(outPath, results)
}

func writeResults(path string, results []specv1.PointResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := specv1.WriteResults(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResults(path string) ([]specv1.PointResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return specv1.ReadResults(f)
}

// fleetEnv is a coordinator and two workers in this process, each behind its
// own loopback listener and its own handle on one shared store directory —
// what `sweepd` plus two `sweepd -worker` processes set up.
type fleetEnv struct {
	svc     *sweepsvc.Service
	workers [2]*sweepsvc.Worker
	servers []*obs.Server
	caches  []*runner.Cache
	client  *sweepsvc.Client
	journal string
}

func startFleet(dir string) (fl *fleetEnv, err error) {
	fl = &fleetEnv{journal: filepath.Join(dir, "journal.jsonl")}
	defer func() {
		if err != nil {
			fl.stop()
		}
	}()
	store := filepath.Join(dir, "store")
	open := func() (*runner.Cache, error) {
		c, err := runner.Open(store)
		if err == nil {
			fl.caches = append(fl.caches, c)
		}
		return c, err
	}
	var urls []string
	for i := range fl.workers {
		c, err := open()
		if err != nil {
			return nil, err
		}
		wk := &sweepsvc.Worker{Cache: c}
		srv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", wk.Handler()))
		if err != nil {
			return nil, err
		}
		fl.servers = append(fl.servers, srv)
		wk.Name = srv.Addr()
		fl.workers[i] = wk
		urls = append(urls, "http://"+srv.Addr())
	}
	c, err := open()
	if err != nil {
		return nil, err
	}
	fl.svc, err = sweepsvc.New(sweepsvc.Config{Cache: c, Fleet: urls, JournalPath: fl.journal})
	if err != nil {
		return nil, err
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", fl.svc.APIHandler()))
	if err != nil {
		return nil, err
	}
	fl.servers = append(fl.servers, srv)
	fl.client = &sweepsvc.Client{Base: "http://" + srv.Addr()}
	return fl, nil
}

func (fl *fleetEnv) stop() {
	if fl.svc != nil {
		fl.svc.Close()
	}
	for _, s := range fl.servers {
		s.Close()
	}
	for _, c := range fl.caches {
		c.Close()
	}
}

// fleetClocks are the client-side clocks of one sweep through the fleet.
type fleetClocks struct {
	submit, firstResult, fetch time.Duration
	// settle is submit-return → settle event, one per point event received
	// (the stream may drop events for a slow subscriber, never block).
	settle []time.Duration
	status *specv1.SweepStatus
}

// sweep is `sweepctl submit -watch` then `sweepctl results > outPath`:
// submit the spec, follow the event stream to done, fetch and write the
// results. span, when non-nil, brackets each client call for the traced run.
func (fl *fleetEnv) sweep(spec *specv1.Spec, outPath string, span func(name string) func()) (*fleetClocks, error) {
	if span == nil {
		span = func(string) func() { return func() {} }
	}
	ctx := context.Background()
	var ck fleetClocks
	start := time.Now()
	end := span("sweepsvc.Client.Submit")
	st, err := fl.client.Submit(ctx, spec)
	end()
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	ck.submit = submitted.Sub(start)
	end = span("sweepsvc.Client.Watch")
	err = fl.client.Watch(ctx, st.ID, func(ev *specv1.Event) error {
		switch ev.Type {
		case "point":
			ck.settle = append(ck.settle, time.Since(submitted))
		case "done":
			ck.status = ev.Stat
		}
		return nil
	})
	end()
	if err != nil && ck.status == nil {
		// The stream drops events, at the extreme the done event, for a
		// reader 64 behind rather than block the sweep; its closing is then
		// the end signal, which Watch reports as an error. The status says
		// whether the sweep did finish.
		if st, serr := fl.client.Status(ctx, st.ID); serr == nil && st.State == specv1.SweepDone {
			ck.status, err = st, nil
		}
	}
	if err != nil {
		return nil, err
	}
	if len(ck.settle) > 0 {
		ck.firstResult = ck.settle[0]
	}
	fetchStart := time.Now()
	end = span("sweepsvc.Client.Results")
	results, err := fl.client.Results(ctx, st.ID)
	end()
	if err != nil {
		return nil, err
	}
	ck.fetch = time.Since(fetchStart)
	end = span("specv1.WriteResults")
	err = writeResults(outPath, results)
	end()
	return &ck, err
}

// digest canonicalizes every point's result — decode, zero the two
// wall-clock detector histograms (they sit inside stats.Result, so the raw
// bytes differ run to run), re-encode — and returns the SHA-256 over the
// encodings concatenated in point order, plus one hash per point so that a
// mismatch can name the point. Byte-identity of everything else in a result
// is the simulator's per-seed contract.
func digest(results []specv1.PointResult) (string, [][sha256.Size]byte, error) {
	all := sha256.New()
	points := make([][sha256.Size]byte, len(results))
	for i, pr := range results {
		res, err := specv1.DecodeResult(pr.Result)
		if err != nil || res == nil {
			return "", nil, fmt.Errorf("point %d (key %s): undecodable result: %v", i, pr.Key, err)
		}
		res.DetectBuildTime = stats.Histogram{}
		res.DetectAnalyzeTime = stats.Histogram{}
		raw, err := specv1.EncodeResult(res)
		if err != nil {
			return "", nil, err
		}
		all.Write(raw)
		points[i] = sha256.Sum256(raw)
	}
	return hex.EncodeToString(all.Sum(nil)), points, nil
}

// sameDigests reports the first point at which two runs of one spec differ.
func sameDigests(what string, results []specv1.PointResult, got, want [][sha256.Size]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: point %d (key %s) differs", what, i, results[i].Key)
		}
	}
	return nil
}

// unsettled counts points that did not settle done or cached.
func unsettled(results []specv1.PointResult, want int) int {
	bad := want - len(results)
	if bad < 0 {
		bad = 0
	}
	for _, pr := range results {
		if pr.Status != specv1.StatusDone && pr.Status != specv1.StatusCached {
			bad++
		}
	}
	return bad
}
