package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// storeLines returns the result bytes of every line of a store, by key.
func storeLines(t testing.TB, dir string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]json.RawMessage{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("store line %s: %v", line, err)
		}
		out[e.Key] = e.Result
	}
	return out
}

func neverRun(t *testing.T) func(context.Context, sim.Config) (*stats.Result, error) {
	return func(_ context.Context, c sim.Config) (*stats.Result, error) {
		t.Errorf("load %.2f re-ran; it is in the store", c.Load)
		return fastRun(nil, c)
	}
}

// TestMapCarriesKeyAndStoreBytes pins the Point.Key/Raw contract: with a
// cache, an executed point carries the very bytes it persisted and a served
// point the very bytes it was decoded from, each under the key Map hashed.
func TestMapCarriesKeyAndStoreBytes(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(5)
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := Map(context.Background(), cfgs, Options{Cache: cache, Run: fastRun})
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	disk := storeLines(t, dir)
	for i, p := range cold {
		if p.Status != Done || p.Key != Key(cfgs[i]) {
			t.Errorf("cold point %d: status %s key %q, want done under %s", i, p.Status, p.Key, Key(cfgs[i]))
		}
		if !bytes.Equal(p.Raw, disk[p.Key]) {
			t.Errorf("cold point %d: Raw is not the line's result bytes:\n raw  %s\n disk %s", i, p.Raw, disk[p.Key])
		}
	}

	if cache, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	warm := Map(context.Background(), cfgs, Options{Cache: cache, Run: neverRun(t)})
	for i, p := range warm {
		if p.Status != Cached || p.Key != cold[i].Key || !bytes.Equal(p.Raw, disk[p.Key]) {
			t.Errorf("warm point %d: status %s key %q raw %s; want cached with the store's bytes", i, p.Status, p.Key, p.Raw)
		}
		if again, _ := json.Marshal(p.Result); !bytes.Equal(again, p.Raw) {
			t.Errorf("warm point %d: Result is not what Raw decodes to", i)
		}
	}
	if cache.Hits() != int64(len(cfgs)) || cache.Misses() != 0 {
		t.Errorf("warm Map: %d hits, %d misses; want %d, 0", cache.Hits(), cache.Misses(), len(cfgs))
	}

	// Without a cache there is nothing to carry, and nothing is hashed or
	// encoded on the caller's behalf.
	for i, p := range Map(context.Background(), cfgs, Options{Run: fastRun}) {
		if p.Key != "" || p.Raw != nil {
			t.Errorf("cacheless point %d carries key %q raw %s", i, p.Key, p.Raw)
		}
	}

	// Nor when the store did not take the append (its log closed under
	// it, as a full disk would fail the write): the run is done, but the
	// store does not hold its bytes.
	cache.log.Close()
	fresh := cfgs[0]
	fresh.Seed++
	if p := Map(context.Background(), []sim.Config{fresh}, Options{Cache: cache, Run: fastRun})[0]; p.Status != Done || p.Result == nil || p.Raw != nil {
		t.Errorf("point whose append failed: status %s, result %v, raw %s; want done with a result and no raw", p.Status, p.Result, p.Raw)
	}
}

// TestUndecodableEntryIsOneMiss: stored bytes that no longer decode must
// count as a single miss (not a hit, not a hit and a miss) and recompute.
func TestUndecodableEntryIsOneMiss(t *testing.T) {
	dir := t.TempDir()
	cfgs := sweepConfigs(2)
	line := fmt.Sprintf(`{"key":%q,"result":{"Cycles":"four hundred"}}`+"\n", Key(cfgs[0]))
	if err := os.WriteFile(filepath.Join(dir, cacheFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	pts := Map(context.Background(), cfgs[:1], Options{Cache: cache, Run: fastRun})
	if pts[0].Status != Done || pts[0].Result == nil {
		t.Fatalf("point did not recompute: %+v", pts[0])
	}
	if cache.Hits() != 0 || cache.Misses() != 1 {
		t.Errorf("%d hits, %d misses; want 0, 1", cache.Hits(), cache.Misses())
	}
	if raw, ok := cache.GetRaw(pts[0].Key); !ok || !bytes.Equal(raw, pts[0].Raw) {
		t.Errorf("recomputed result did not replace the bad entry: %s", raw)
	}
}

// TestNonCanonicalEntryStillHits: the store decodes with jsonlog.Unmarshal,
// whose one-pass reader refuses escapes. A line some other writer produced —
// members reordered, spaced out, the label escaped — must still be a hit by
// every door, decode to the same Result, and be served byte for byte as
// stored; and a payload the reader reads almost to the end before refusing
// is one miss that shows the caller nothing of what was read.
func TestNonCanonicalEntryStillHits(t *testing.T) {
	cfg := sweepConfigs(1)[0]
	key := Key(cfg)
	run := &stats.Result{Label: "dor1", Load: cfg.Load, Cycles: 100, Seed: 1e19, Saturated: true, Delivered: 7, MeanActive: 0.905}
	for i := int64(0); i < 20; i++ {
		run.Latency.Observe(30 + 3*i)
		run.DetectAnalyzeTime.Observe(400 + 90*i)
	}
	canon, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	var want stats.Result // what the canonical bytes decode to
	var members map[string]json.RawMessage
	if json.Unmarshal(canon, &want) != nil || json.Unmarshal(canon, &members) != nil {
		t.Fatalf("canonical bytes do not decode: %s", canon)
	}
	members["Label"] = json.RawMessage(`"\u0064or1"`)
	odd := []byte("{")
	for typ, i := reflect.TypeOf(want), len(members)-1; i >= 0; i-- {
		odd = fmt.Appendf(odd, "  %q : %s ,", typ.Field(i).Name, members[typ.Field(i).Name])
	}
	odd[len(odd)-1] = '}'
	line := fmt.Sprintf(`{"key":%q,"label":"dor1","load":%v,"result":%s}`, key, cfg.Load, odd)
	if _, payload := splitEntry([]byte(line)); !bytes.Equal(payload, odd) {
		t.Fatalf("the line is not in PutRaw's shape, so no lookup would start from a span: %s", line)
	}
	served := func(t *testing.T, c *Cache, raw json.RawMessage, res *stats.Result) {
		t.Helper()
		if !bytes.Equal(raw, odd) {
			t.Errorf("served %s\n stored %s", raw, odd)
		}
		if res != nil && !reflect.DeepEqual(*res, want) {
			t.Errorf("decoded %+v\n the canonical bytes decode to %+v", *res, want)
		}
		wantCounts(t, c, 1, 0, 1)
	}
	for name, lookup := range map[string]func(*testing.T, *Cache){
		"Get": func(t *testing.T, c *Cache) {
			res, ok := c.Get(cfg)
			if !ok {
				t.Fatal("miss")
			}
			served(t, c, odd, res)
		},
		"Map": func(t *testing.T, c *Cache) {
			p := Map(context.Background(), []sim.Config{cfg}, Options{Cache: c, Run: neverRun(t)})[0]
			if p.Status != Cached {
				t.Fatalf("settled %s", p.Status)
			}
			served(t, c, p.Raw, p.Result)
		},
		"GetRaw": func(t *testing.T, c *Cache) {
			raw, _ := c.GetRaw(key)
			served(t, c, raw, nil)
		},
	} {
		t.Run(name, func(t *testing.T) { // a fresh handle each: every lookup is the first, off a span
			dir := t.TempDir()
			writeStore(t, dir, line)
			lookup(t, openStore(t, dir))
		})
	}

	// Canonical up to one byte inside the last histogram.
	bad := bytes.Clone(canon)
	bad[bytes.LastIndex(bad, []byte(`"max":`))+len(`"max"`)] = ';'
	dir := t.TempDir()
	writeStore(t, dir, fmt.Sprintf(`{"key":%q,"label":"dor1","load":%v,"result":%s}`, key, cfg.Load, bad))
	c := openStore(t, dir)
	seen := stats.Result{Label: "the caller's"}
	if raw, ok := c.lookup(key, &seen); ok || !reflect.DeepEqual(seen, stats.Result{Label: "the caller's"}) {
		t.Errorf("lookup = %s, %v and left %+v", raw, ok, seen)
	}
	wantCounts(t, c, 0, 1, 0)
}

// parentConfigs are the configurations behind testdata/parent_store, a
// store written by the commit before Point carried Key/Raw (real runs of
// bench-shaped points: 4-ary 2-cube, DOR1/TFAR1, 100+400 cycles). The seeds
// are specv1.PointSeed(1997, i), written out: specv1 imports this package.
func parentConfigs() []sim.Config {
	seeds := []uint64{9804167865927158697, 7972408045597865681, 15373383990895559250, 2698086259567085596}
	var cfgs []sim.Config
	for i, seed := range seeds {
		c := sim.Default()
		c.Routing = "dor"
		if i%2 == 1 {
			c.Routing = "tfar"
		}
		c.K = 4
		c.Load = float64(5+30*i) / 100
		c.WarmupCycles, c.MeasureCycles = 100, 400
		c.Seed = seed
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestParentWrittenStore is the cross-version round trip: a store the
// previous version wrote is served byte for byte (same keys, same result
// bytes), and persisting those results again writes the previous version's
// lines byte for byte — so old and new processes can share one store.
func TestParentWrittenStore(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_store", cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cacheFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	disk := storeLines(t, dir)
	cfgs := parentConfigs()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pts := Map(context.Background(), cfgs, Options{Cache: cache, Run: neverRun(t)})
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want, ok := disk[p.Key]
		if !ok {
			t.Fatalf("point %d: key %s is not in the parent's store", i, p.Key)
		}
		if p.Status != Cached || !bytes.Equal(p.Raw, want) {
			t.Errorf("point %d: status %s, bytes differ from the parent's: %s", i, p.Status, p.Raw)
		}
	}

	rewritten := t.TempDir()
	if cache, err = Open(rewritten); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		cache.Put(cfgs[i], p.Result)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(rewritten, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Errorf("re-persisted store differs from the parent's:\n got  %s\n want %s", got, fixture)
	}
}

// mapCanonical is the encoding CanonicalConfig is defined by: a map of
// every field of the configuration's Spec through encoding/json, which sorts
// the keys.
func mapCanonical(t *testing.T, c sim.Config) []byte {
	v := reflect.ValueOf(c.Spec)
	m := map[string]interface{}{}
	for i := 0; i < v.NumField(); i++ {
		m[v.Type().Field(i).Name] = v.Field(i).Interface()
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCanonicalConfigMatchesMapEncoding holds the planned encoder to that
// reference on randomized configurations: negative and extreme integers
// (appended directly), floats either side of encoding/json's exponent
// thresholds, strings that need escaping and non-empty slices.
func TestCanonicalConfigMatchesMapEncoding(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.5, 0.1 + 0.2, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.7e300,
		-2.5e-8, 100, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	strs := []string{"", "dor", "DOR1 uni", `quo"te`, `back\slash`, "<tag>&", "tab\there", "uni\u00e9", "\u2028", "del\x7f", "bad\xff"}
	ints := []int{0, 1, -1, 16, math.MaxInt32, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		c := sim.Default()
		v := reflect.ValueOf(&c.Spec).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Bool:
				f.SetBool(rng.Intn(2) == 0)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(ints[rng.Intn(len(ints))]))
			case reflect.Uint64:
				f.SetUint(rng.Uint64())
			case reflect.Float64:
				if rng.Intn(2) == 0 {
					f.SetFloat(floats[rng.Intn(len(floats))])
				} else {
					f.SetFloat(math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)) // any finite float
				}
			case reflect.String:
				f.SetString(strs[rng.Intn(len(strs))])
			}
		}
		switch trial % 3 { // populated, empty and (as Default leaves them) nil slices
		case 0:
			c.TimeoutThresholds = []int64{16, -32, math.MaxInt64}
			c.FaultEvents = []fault.Event{{Cycle: 100, Kind: fault.LinkDown, Ch: 3}}
		case 1:
			c.TimeoutThresholds, c.FaultEvents = []int64{}, []fault.Event{}
		}
		if got, want := CanonicalConfig(c), mapCanonical(t, c); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got  %s\n want %s", trial, got, want)
		}
	}
	// The values the plan writes itself, at encoding/json's own thresholds.
	for _, label := range []string{`a<b`, `say "hi"`, "naïve", "ok"} {
		for _, load := range []float64{1e-7, 1e21, 0.35} {
			for _, thresholds := range [][]int64{nil, {}, {16, 64}} {
				c := sim.Default()
				c.Label, c.Load, c.TimeoutThresholds = label, load, thresholds
				if got, want := CanonicalConfig(c), mapCanonical(t, c); !bytes.Equal(got, want) {
					t.Fatalf("label %q, load %v, thresholds %v:\n got  %s\n want %s", label, load, thresholds, got, want)
				}
			}
		}
	}
}

// TestKeyAllocs pins the planned encoder: the configuration's copy, the
// encoding, and the digest's two. Through json.Marshal a key took 24, so a
// field kind that slid back to it fails here.
func TestKeyAllocs(t *testing.T) {
	c := parentConfigs()[1]
	if allocs := testing.AllocsPerRun(100, func() { keySink = Key(c) }); allocs > 5 {
		t.Errorf("hashing a configuration allocated %.0f times, want at most 5", allocs)
	}
}

// TestOnePointMapAllocs: flexsim and a fleet worker call Map with one
// configuration. A warm one-point Map is one chunk, looked up on the
// caller's goroutine, and must allocate no more than the 11 times it did
// when lookups were serial.
func TestOnePointMapAllocs(t *testing.T) {
	cfgs := parentConfigs()[1:2]
	c := openStore(t, t.TempDir())
	Map(context.Background(), cfgs, Options{Cache: c, Run: fastRun})
	if allocs := testing.AllocsPerRun(100, func() {
		if p := Map(context.Background(), cfgs, Options{Cache: c})[0]; p.Status != Cached {
			t.Fatalf("settled %s", p.Status)
		}
	}); allocs > 11 {
		t.Errorf("a warm one-point Map allocated %.0f times, want at most 11", allocs)
	}
}

// benchStore fills a store with n fixture-shaped results (real ones, so a
// decode costs what a bench point's does) and returns their configurations.
func benchStore(b *testing.B, n int) (string, []sim.Config) {
	b.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_store", cacheFile))
	if err != nil {
		b.Fatal(err)
	}
	var results []json.RawMessage
	for _, line := range bytes.Split(bytes.TrimSpace(fixture), []byte("\n")) {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			b.Fatal(err)
		}
		results = append(results, e.Result)
	}
	dir := b.TempDir()
	cache, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = parentConfigs()[i%len(results)]
		cfgs[i].Seed = uint64(i)
		cache.PutRaw(Key(cfgs[i]), "", cfgs[i].Load, results[i%len(results)])
	}
	if err := cache.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, cfgs
}

// BenchmarkWarmMap is the runner-layer rung of a warm re-sweep: Map over a
// store that holds every point (key + lookup + decode per point).
func BenchmarkWarmMap(b *testing.B) {
	dir, cfgs := benchStore(b, 256)
	cache, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range Map(context.Background(), cfgs, Options{Parallelism: 1, Cache: cache}) {
			if p.Status != Cached {
				b.Fatalf("point %d: %s", p.Index, p.Status)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs))/1e3, "µs/point")
}

// BenchmarkFirstGetRaw is a fresh handle's first GetRaw of each key in a
// store: the pread of its span and the validation of its bytes. (Every later
// GetRaw of the key is a map load.) Opening the handle is not timed.
func BenchmarkFirstGetRaw(b *testing.B) {
	dir, cfgs := benchStore(b, 256)
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		keys[i] = Key(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, k := range keys {
			if _, ok := cache.GetRaw(k); !ok {
				b.Fatalf("key %s missed", k)
			}
		}
		b.StopTimer()
		cache.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys))/1e3, "µs/point")
}

// BenchmarkOpenLargeStore is the scaling the index exists for: opening a
// handle on a big store locates its lines and reads no payload, so both the
// time and the heap it keeps are per key, not per stored byte. (A decode per
// line, the design before, was 17.8 µs/entry and 108 MiB retained here.)
func BenchmarkOpenLargeStore(b *testing.B) {
	const n = 50000
	dir, _ := benchStore(b, n)
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		cache, err := Open(dir)
		b.StopTimer()
		if err != nil || cache.Len() != n {
			b.Fatalf("Open: %v, Len %d", err, cache.Len())
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		cache.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n/1e3, "µs/entry")
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "retained-MiB")
}

// BenchmarkReloadNothingNew is a fleet worker's per-request Reload when no
// other process has written: one pread that returns nothing, and — since
// the read buffer lives on the log — no allocation.
func BenchmarkReloadNothingNew(b *testing.B) {
	dir, _ := benchStore(b, 256)
	cache, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.Reload(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { cache.Reload() }); allocs != 0 {
		b.Fatalf("an idle Reload allocates %v times", allocs)
	}
}

var keySink string

func BenchmarkKey(b *testing.B) {
	c := parentConfigs()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = Key(c)
	}
}
