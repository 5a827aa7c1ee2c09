package runner

// The store's bytes are opaque to the index (DESIGN.md, "Validation on
// first hit"): these tests pin the line writer and the line recogniser to
// encoding/json, and what a lookup does with a line whose payload nobody has
// read yet.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"flexsim/internal/jsonlog"
	"flexsim/internal/sim"
)

var (
	spliceKeys   = []string{"k", Key(sweepConfigs(1)[0]), "", "with space", `quo"te`, `back\slash`, "café", "<k>", "tab\t"}
	spliceLabels = []string{"", "dor1", "DOR1 uni", `"quoted"`, "naïve", "a&b", "nl\n", "del\x7f"}
	spliceLoads  = []float64{0, 0.05, 0.5, 1, 1e-7, 1e21, 5e-324, -0.25, 1.0 / 3, math.NaN(), math.Inf(1)}
	splicePloads = []string{`{"x":1}`, `{}`, `{"a":{"b":{}}}`, `{ "x" : 1 }`, "{\"x\":\"a b\"}\n", `{"x":"<b>&"}`, `{"x":" "}`, "{\"x\":\" \"}",
		`{"x":"\""}`, "{\"x\":\"raw\nnewline\"}", `[1,2]`, `"s"`, `1`, `null`, ``, `{"a":tru}`, `{"x":1}}`, `{"x":1},"result":{"y":2}`}
)

// checkEntry holds the line PutRaw writes to json.Marshal(entry{…}) and
// splitEntry to json.Unmarshal on that line.
func checkEntry(t *testing.T, key, label string, load float64, raw json.RawMessage) {
	t.Helper()
	want, werr := json.Marshal(entry{Key: key, Label: label, Load: load, Result: raw})
	line, err := jsonlog.Append(nil, &entry{key, label, load, raw})
	if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(line, want) {
		t.Fatalf("line for (%q, %q, %v, %q) = %q, %v; json.Marshal %q, %v", key, label, load, raw, line, err, want, werr)
	}
	if err != nil {
		return
	}
	var e entry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatalf("line %q does not decode: %v", line, err)
	}
	k, payload := splitEntry(line)
	// Accepted exactly when nothing in the envelope needed escaping.
	if want := key != "" && plain(key) && plain(label) && e.Result[0] == '{'; (payload != nil) != want {
		t.Fatalf("splitEntry(%q) = %q, want accepted = %v", line, payload, want)
	}
	if payload != nil && (string(k) != e.Key || !bytes.Equal(payload, e.Result)) {
		t.Fatalf("splitEntry(%q) = key %q, result %q; json.Unmarshal %q, %q", line, k, payload, e.Key, e.Result)
	}
	// (Invalid UTF-8 comes back as U+FFFD: encoding/json's coercion, not ours.)
	if utf8.ValidString(key) && utf8.ValidString(label) && (e.Key != key || e.Label != label || e.Load != load) {
		t.Fatalf("line %q decodes to %q, %q, %v; wrote %q, %q, %v", line, e.Key, e.Label, e.Load, key, label, load)
	}
}

// plain reports whether encoding/json writes s between quotes as it is.
func plain(s string) bool {
	return !strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 || r >= 0x80 || strings.ContainsRune(`"\<>&`, r) })
}

// TestSpliceMatchesJSON: the line PutRaw writes is json.Marshal's, over keys
// and labels that need escaping, every load either side of encoding/json's
// exponent thresholds, and payloads it must compact, escape or refuse.
func TestSpliceMatchesJSON(t *testing.T) {
	for _, key := range spliceKeys {
		for _, label := range spliceLabels {
			for _, load := range spliceLoads {
				for _, raw := range splicePloads {
					checkEntry(t, key, label, load, json.RawMessage(raw))
				}
			}
		}
	}
	checkEntry(t, "k", "", 0, nil) // "result":null
}

// checkSplit is the recogniser's contract on any line: accepting it and
// finding the payload valid must mean json.Unmarshal sees exactly that.
func checkSplit(t *testing.T, line []byte) {
	t.Helper()
	key, payload := splitEntry(line)
	if payload == nil {
		return
	}
	// Reload turns the payload into a span by its length alone: it must be
	// the line's tail but for the closing brace.
	if len(key) == 0 || len(payload)+1 > len(line) || &payload[0] != &line[len(line)-1-len(payload)] {
		t.Fatalf("splitEntry(%q) = %q, %q", line, key, payload)
	}
	if !json.Valid(payload) {
		return // one miss on the first hit
	}
	var e entry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatalf("splitEntry accepted %q with a valid payload, json.Unmarshal: %v", line, err)
	}
	if e.Key != string(key) || !bytes.Equal(e.Result, payload) {
		t.Fatalf("splitEntry(%q) = key %q, result %q; json.Unmarshal %q, %q", line, key, payload, e.Key, e.Result)
	}
}

var splitSeeds = []string{
	`{"key":"k","result":{"x":1},"result":{"y":2}}`, // accepted; its span is not one value: a miss
	`{"key":"k","load":--,"result":{"x":1}}`,
	`{"key":"k","load":1e999,"result":{"x":1}}`,
	`{"key":"k","load":0.50,"result":{"x":1}}`,
	`{"key":"k","load":0.5,"label":"l","result":{"x":1}}`,
	`{"key":"k","label":"l","label":"m","result":{"x":1}}`,
	`{"key":"k","label":"l","load":0.5,"result":{"x":1}}`,
	`{"key":"k","label":"a\"b","result":{"x":1}}`,
	`{"key":"","result":{"x":1}}`,
	`{"key":"k","result":{"a":{"b":{}}`,
	`{"key":"k","result":{}}`,
	`{"key":"k","result":{}`,
	`{"key":"k", "result":{"x":1}}`,
	`{"key":"k","result":{"x":1}} `,
	`{"key":"a{"key":"b","result":{"x":1}}`,
	`{"key":"k","result":null}`,
	"{\"key\":\"caf\xc3\xa9\",\"result\":{\"x\":1}}",
}

func TestSplitEntry(t *testing.T) {
	for _, line := range splitSeeds {
		checkSplit(t, []byte(line))
	}
	key, payload := splitEntry([]byte(splitSeeds[0]))
	if string(key) != "k" || payload == nil || json.Valid(payload) {
		t.Fatalf("duplicate result member: key %q, payload %q; want accepted with a payload that does not validate", key, payload)
	}
	for _, i := range []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 14, 15, 16} {
		if _, payload := splitEntry([]byte(splitSeeds[i])); payload != nil {
			t.Errorf("splitEntry accepted %q", splitSeeds[i])
		}
	}
}

// FuzzSplitEntry is the differential check in both directions: any bytes
// through checkSplit, and any (key, label, load, payload) through the writer
// and back (checkEntry).
func FuzzSplitEntry(f *testing.F) {
	for i, line := range splitSeeds {
		f.Add([]byte(line), spliceKeys[i%len(spliceKeys)], spliceLabels[i%len(spliceLabels)],
			math.Float64bits(spliceLoads[i%len(spliceLoads)]), []byte(splicePloads[i%len(splicePloads)]))
	}
	f.Fuzz(func(t *testing.T, line []byte, key, label string, bits uint64, raw []byte) {
		checkSplit(t, line)
		checkEntry(t, key, label, math.Float64frombits(bits), raw)
	})
}

// writeStore replaces dir's store file with the given lines.
func writeStore(t *testing.T, dir string, lines ...string) {
	t.Helper()
	var data []byte
	for _, l := range lines {
		data = append(append(data, l...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, cacheFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func openStore(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func wantCounts(t *testing.T, c *Cache, hits, misses int64, length int) {
	t.Helper()
	if c.Hits() != hits || c.Misses() != misses || c.Len() != length {
		t.Fatalf("%d hits, %d misses, Len %d; want %d, %d, %d", c.Hits(), c.Misses(), c.Len(), hits, misses, length)
	}
}

// TestCorruptPayloadIsOneMiss: a line the recogniser accepts whose payload
// is not valid JSON — brace-balanced garbage, or a tear that happened to end
// in "}}" and was healed — is indexed, is exactly one miss on its first
// lookup by either door, is dropped, and the re-run's bytes then serve from
// memory. A tear anywhere else is never indexed.
func TestCorruptPayloadIsOneMiss(t *testing.T) {
	cfg := sweepConfigs(1)[0]
	key := Key(cfg)
	for name, payload := range map[string]string{
		"garbage":    `{"a":tru}}`,
		"healedTear": `{"a":{"b":{}}`,
	} {
		line := fmt.Sprintf(`{"key":%q,"load":0.1,"result":%s`, key, payload)
		t.Run(name+"/get", func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, line)
			c := openStore(t, dir)
			wantCounts(t, c, 0, 0, 1)
			pts := Map(context.Background(), []sim.Config{cfg}, Options{Cache: c, Run: fastRun})
			if pts[0].Status != Done {
				t.Fatalf("corrupt entry settled %s, want a re-run", pts[0].Status)
			}
			wantCounts(t, c, 0, 1, 1)
			if err := c.Reload(); err != nil { // our own line: memory is kept
				t.Fatal(err)
			}
			raw, ok := c.GetRaw(key)
			if !ok || &raw[0] != &pts[0].Raw[0] {
				t.Fatalf("after the re-run GetRaw = %s, %v; want the bytes the run persisted, from memory", raw, ok)
			}
			wantCounts(t, c, 1, 1, 1)
		})
		t.Run(name+"/GetRaw", func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, line)
			c := openStore(t, dir)
			if raw, ok := c.GetRaw(key); ok {
				t.Fatalf("GetRaw served %s", raw)
			}
			wantCounts(t, c, 0, 1, 0)
			if _, ok := c.GetRaw(key); ok {
				t.Fatal("second GetRaw hit a dropped entry")
			}
			wantCounts(t, c, 0, 2, 0)
		})
	}

	dir := t.TempDir()
	writeStore(t, dir, fmt.Sprintf(`{"key":%q,"load":0.1,"result":{"Label":"x","Lo`, key), fmt.Sprintf(`{"key":%q,"res`, key))
	wantCounts(t, openStore(t, dir), 0, 0, 0)
}

// TestNullPayloadIsAMiss: null is valid JSON but no Result. A store line
// holding it (a worker's done response without a result, persisted as is)
// is a miss by either door, not a hit full of zeros, and the point re-runs.
func TestNullPayloadIsAMiss(t *testing.T) {
	cfg := sweepConfigs(1)[0]
	dir := t.TempDir()
	c := openStore(t, dir)
	if err := c.PutRaw(Key(cfg), "x", cfg.Load, []byte("null")); err != nil {
		t.Fatal(err)
	}
	c = openStore(t, dir)
	if res, ok := c.Get(cfg); ok {
		t.Errorf("Get served %+v", res)
	}
	if raw, ok := c.GetRaw(Key(cfg)); ok {
		t.Errorf("GetRaw served %s", raw)
	}
	wantCounts(t, c, 0, 2, 1)
	if p := Map(context.Background(), []sim.Config{cfg}, Options{Cache: c, Run: fastRun})[0]; p.Status != Done {
		t.Fatalf("null entry settled %s, want a re-run", p.Status)
	}
	if res, ok := c.Get(cfg); !ok || res.Cycles == 0 {
		t.Errorf("after the re-run Get = %+v, %v", res, ok)
	}
}

// TestLastLineWins: with two lines under one key the index holds the later
// one. If that one is corrupt the key recomputes even though the earlier
// line was good — the documented cost of not reading payloads at Reload
// (before, the corrupt line failed to decode there and the earlier one
// stayed).
func TestLastLineWins(t *testing.T) {
	cfg := sweepConfigs(1)[0]
	key := Key(cfg)
	good := fmt.Sprintf(`{"key":%q,"result":{"Label":"good"}}`, key)
	dir := t.TempDir()
	writeStore(t, dir, good, fmt.Sprintf(`{"key":%q,"result":{"Label":good}}`, key))
	c := openStore(t, dir)
	if _, ok := c.Get(cfg); ok {
		t.Fatal("served a key whose last line is corrupt")
	}
	wantCounts(t, c, 0, 1, 0)

	dir = t.TempDir()
	writeStore(t, dir, fmt.Sprintf(`{"key":%q,"result":{"Label":"old"}}`, key), good)
	c = openStore(t, dir)
	if res, ok := c.Get(cfg); !ok || res.Label != "good" {
		t.Fatalf("Get = %+v, %v; want the later line", res, ok)
	}
	wantCounts(t, c, 1, 0, 1)
}

// TestReloadKeepsMemory: bytes this handle holds — its own Put, an AdoptRaw,
// a hit it has validated — are not given up for a line another process
// appends under the same key; a line nobody has read yet is.
func TestReloadKeepsMemory(t *testing.T) {
	dir := t.TempDir()
	a, b := openStore(t, dir), openStore(t, dir)
	put := func(c *Cache, key, label string) {
		t.Helper()
		if err := c.PutRaw(key, "", 0, json.RawMessage(fmt.Sprintf(`{"Label":%q}`, label))); err != nil {
			t.Fatal(err)
		}
	}
	served := func(c *Cache, key, label string) {
		t.Helper()
		if err := c.Reload(); err != nil {
			t.Fatal(err)
		}
		if raw, ok := c.GetRaw(key); !ok || string(raw) != fmt.Sprintf(`{"Label":%q}`, label) {
			t.Fatalf("key %s serves %s, %v; want label %s", key, raw, ok, label)
		}
	}
	put(a, "put", "mine")
	a.AdoptRaw("adopted", json.RawMessage(`{"Label":"mine"}`))
	put(b, "hit", "first")
	put(b, "unread", "first")
	served(a, "hit", "first") // validated: in a's memory from here on
	for _, key := range []string{"put", "adopted", "hit", "unread"} {
		put(b, key, "theirs")
	}
	served(a, "put", "mine")
	served(a, "adopted", "mine")
	served(a, "hit", "first")
	served(a, "unread", "theirs")
}

// TestStoreTruncatedUnderHandle: spans into a file that has since lost its
// tail are misses, not panics or short results.
func TestStoreTruncatedUnderHandle(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(4)
	w := openStore(t, dir)
	// One run at a time: the cut below assumes lines in cfgs' order.
	Map(context.Background(), cfgs, Options{Cache: w, Run: fastRun, Parallelism: 1})
	c := openStore(t, dir)
	wantCounts(t, c, 0, 0, 4)
	// Cut inside the second line's payload: the first line survives, the
	// second reads short, the rest are past the end.
	data, err := os.ReadFile(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n') + 1
	second := first + bytes.IndexByte(data[first:], '\n')
	if err := os.Truncate(filepath.Join(dir, cacheFile), int64(second-5)); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		res, ok := c.Get(cfg)
		if ok != (i == 0) || ok && res.Load != cfg.Load {
			t.Fatalf("point %d: Get = %+v, %v", i, res, ok)
		}
	}
	wantCounts(t, c, 1, 3, 1)
}

// TestConcurrentFirstHit: many goroutines taking the first hit on one key
// race to validate and memoise it; every one is a hit with the same bytes.
func TestConcurrentFirstHit(t *testing.T) {
	dir := t.TempDir()
	cfg := sweepConfigs(1)[0]
	Map(context.Background(), []sim.Config{cfg}, Options{Cache: openStore(t, dir), Run: fastRun})
	want := storeLines(t, dir)[Key(cfg)]
	c := openStore(t, dir)
	const n = 8
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var raw json.RawMessage
			var ok bool
			if g%2 == 0 {
				raw, _, ok = c.get(Key(cfg))
			} else {
				raw, ok = c.GetRaw(Key(cfg))
			}
			if !ok || !bytes.Equal(raw, want) {
				t.Errorf("goroutine %d: %s, %v; want the line's bytes", g, raw, ok)
			}
		}()
	}
	wg.Wait()
	wantCounts(t, c, n, 0, 1)
}

// TestForgetThenReload: Forget drops spans like anything else, and Reload
// resumes after the lines already scanned — it does not bring them back.
func TestForgetThenReload(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(3)
	w := openStore(t, dir)
	Map(context.Background(), cfgs[:2], Options{Cache: w, Run: fastRun})
	c := openStore(t, dir)
	c.Forget()
	Map(context.Background(), cfgs[2:], Options{Cache: w, Run: fastRun})
	if err := c.Reload(); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, c, 0, 0, 1)
	if _, ok := c.Get(cfgs[0]); ok {
		t.Fatal("a forgotten entry was served")
	}
	if _, ok := c.Get(cfgs[2]); !ok {
		t.Fatal("the line appended after Forget was not served")
	}
	wantCounts(t, c, 1, 1, 1)
}
