package runner

// Multi-process store safety: two OS processes appending to the same
// results.jsonl concurrently must never tear or lose a record, and a
// coordinator process must be able to Reload their completions while they
// write. The children are this test binary re-exec'd (the standard helper
// pattern), so `go test` needs no extra fixtures.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

const (
	multiprocDirEnv  = "FLEXSIM_CACHE_CHILD_DIR"
	multiprocIDEnv   = "FLEXSIM_CACHE_CHILD_ID"
	multiprocRecords = 200
)

// childConfig derives a distinct configuration per (child, record) so every
// record has its own content address.
func childConfig(child, i int) sim.Config {
	c := sim.Quick()
	c.Seed = uint64(1000*child + i + 1)
	c.Label = fmt.Sprintf("child%d", child)
	return c
}

// TestCacheMultiProcessAppend is both parent and child. As a child (env
// set) it appends its records as fast as possible and exits. As the parent
// it spawns two children on one store, Reloads concurrently while they
// write, and then verifies that all records survived intact.
func TestCacheMultiProcessAppend(t *testing.T) {
	if dir := os.Getenv(multiprocDirEnv); dir != "" {
		runMultiprocChild(t, dir)
		return
	}

	dir := t.TempDir()
	var procs []*exec.Cmd
	for child := 1; child <= 2; child++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCacheMultiProcessAppend$", "-test.v=false")
		cmd.Env = append(os.Environ(),
			multiprocDirEnv+"="+dir,
			fmt.Sprintf("%s=%d", multiprocIDEnv, child))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start child %d: %v", child, err)
		}
		procs = append(procs, cmd)
	}

	// A concurrent reader (the coordinator's shape): Reload repeatedly
	// while the children append; every observed record must be intact.
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reader.Reload(); err != nil {
				t.Errorf("concurrent Reload: %v", err)
				return
			}
		}
	}()

	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("child %d failed: %v", i+1, err)
		}
	}
	close(stop)
	readerWG.Wait()

	// Every line in the store must be a complete, valid record.
	f, err := os.Open(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lines := 0
	for sc.Scan() {
		lines++
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("torn record on line %d: %v\n%q", lines, err, sc.Text())
		}
		if e.Key == "" || len(e.Result) == 0 {
			t.Fatalf("incomplete record on line %d: %q", lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * multiprocRecords; lines != want {
		t.Fatalf("store holds %d records, want %d (lost writes)", lines, want)
	}

	// A fresh Open (and the live reader after a final Reload) must index
	// every record with its payload intact.
	if err := reader.Reload(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	defer reader.Close()
	for _, c := range []*Cache{reader, fresh} {
		if got := c.Len(); got != 2*multiprocRecords {
			t.Fatalf("cache indexes %d records, want %d", got, 2*multiprocRecords)
		}
		for child := 1; child <= 2; child++ {
			for i := 0; i < multiprocRecords; i++ {
				cfg := childConfig(child, i)
				res, ok := c.Get(cfg)
				if !ok {
					t.Fatalf("child %d record %d missing from index", child, i)
				}
				if res.Seed != cfg.Seed || res.Label != cfg.Label {
					t.Fatalf("child %d record %d corrupted: %+v", child, i, res)
				}
			}
		}
	}
}

func runMultiprocChild(t *testing.T, dir string) {
	var id int
	fmt.Sscanf(os.Getenv(multiprocIDEnv), "%d", &id)
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("child %d open: %v", id, err)
	}
	for i := 0; i < multiprocRecords; i++ {
		cfg := childConfig(id, i)
		res := &stats.Result{Label: cfg.Label, Load: cfg.Load, Seed: cfg.Seed, Delivered: int64(i)}
		c.Put(cfg, res)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("child %d close: %v", id, err)
	}
}

// TestCacheReloadSkipsPartialTail pins the incremental-scan contract: a
// final line without a newline (an append in flight) is not consumed, and
// is picked up by the next Reload once completed.
func TestCacheReloadSkipsPartialTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, cacheFile)

	cfg := sim.Quick()
	raw, _ := json.Marshal(&stats.Result{Label: "x", Seed: cfg.Seed})
	full, _ := json.Marshal(entry{Key: Key(cfg), Result: raw})

	// A complete record followed by half of another.
	if err := os.WriteFile(path, append(append([]byte{}, full...), append([]byte("\n"), full[:10]...)...), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (partial tail must not be indexed)", c.Len())
	}

	// Complete the tail out-of-band (another process finishing its write);
	// Reload must now pick it up without rereading the first record.
	cfg2 := sim.Quick()
	cfg2.Seed = 999
	raw2, _ := json.Marshal(&stats.Result{Label: "y", Seed: 999})
	full2, _ := json.Marshal(entry{Key: Key(cfg2), Result: raw2})
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(append(full2, '\n'), int64(len(full)+1)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := c.Reload(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len after completing tail = %d, want 2", c.Len())
	}
	if _, ok := c.Get(cfg2); !ok {
		t.Fatal("completed tail record not served")
	}
}

// TestCacheAdoptRaw pins that AdoptRaw indexes without re-appending.
func TestCacheAdoptRaw(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := sim.Quick()
	raw, _ := json.Marshal(&stats.Result{Label: "adopted", Seed: cfg.Seed})
	c.AdoptRaw(Key(cfg), raw)
	if res, ok := c.Get(cfg); !ok || res.Label != "adopted" {
		t.Fatalf("adopted record not served: %v %v", res, ok)
	}
	if fi, err := os.Stat(filepath.Join(dir, cacheFile)); err == nil && fi.Size() != 0 {
		t.Fatalf("AdoptRaw appended %d bytes to the store", fi.Size())
	}
}

// TestCachePutAfterTornTail: a process killed mid-Put leaves half a line.
// The next process's first Put must not be glued to it — the parent wrote
// `{"key":"…{"key":…}` there, one undecodable line, and the reopened store
// served 1 of the 2 results.
func TestCachePutAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cacheFile), []byte(`{"key":"abc","res`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgs := sweepConfigs(2)
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		c.Put(cfg, &stats.Result{Label: cfg.Label, Seed: uint64(i)})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, cfg := range cfgs {
		if res, ok := c.Get(cfg); !ok || res.Seed != uint64(i) {
			t.Fatalf("result %d not served after reopen (Len %d of 2)", i, c.Len())
		}
	}
}

// TestCachePutRawReportsFailure: an append the store did not take is an
// error to the caller and again at Close, while the bytes stay served from
// memory.
func TestCachePutRawReportsFailure(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.log.Close() // the descriptor goes away under the cache, as a full disk would fail the write
	raw := json.RawMessage(`{"Label":"x"}`)
	perr := c.PutRaw("k", "x", 0.1, raw)
	if perr == nil {
		t.Fatal("PutRaw on a dead descriptor reported success")
	}
	if got, ok := c.GetRaw("k"); !ok || string(got) != string(raw) {
		t.Fatal("failed PutRaw dropped the bytes from memory")
	}
	if cerr := c.Close(); cerr != perr {
		t.Fatalf("Close = %v, want the first failure %v", cerr, perr)
	}
}
