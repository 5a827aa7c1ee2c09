package runner

// Content-addressed result cache. A simulation is deterministic in its
// configuration, so a completed Result is an artifact worth keeping: the
// cache keys each run by the SHA-256 of its canonically JSON-encoded
// sim.Config and persists completed Points as JSONL, letting an interrupted
// or repeated sweep skip every configuration it has already finished.
//
// The file is a jsonlog.Log, which is what makes one directory safe for a
// coordinator and its worker fleet to Open at once (DESIGN.md, "Append-only
// logs"); lookups are lock-free loads from a sync.Map behind an atomic
// pointer and never contend with a Put or a Reload.
import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"flexsim/internal/jsonlog"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// cacheFile is the JSONL file holding one completed Point per line.
const cacheFile = "results.jsonl"

// nonSemantic names Config fields that never influence the measured Result
// (observability cadence and rendering switches, and the shard count — an
// execution strategy the parallel engine guarantees is result-invariant);
// they are excluded from the cache key so toggling instrumentation or
// re-running on a different core count does not invalidate finished runs.
// Fields of func/interface/pointer kind (Tracer, MetricsSink, MetricsLive,
// Incidents) are runtime plumbing and are skipped by kind.
var nonSemantic = map[string]bool{
	"MetricsEvery":   true,
	"IncidentDOT":    true,
	"ForensicsDepth": true,
	"Shards":         true,
	"ProfileEngine":  true,
	"SpansPath":      true,
	"HeatmapPath":    true,
	"TraceContext":   true,
}

// canonicalField is one semantic Config field in the canonical encoding.
type canonicalField struct {
	key   string // `"Name":`, preceded by "," for all but the first field
	index int    // position in sim.Config
}

// canonicalPlan lists the semantic fields of sim.Config sorted by name —
// the order encoding/json gives map keys, so the encoding is that of a
// map[name]value without building and sorting one per call.
var canonicalPlan = func() []canonicalField {
	t := reflect.TypeOf(sim.Config{})
	var plan []canonicalField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if nonSemantic[f.Name] {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Func, reflect.Interface, reflect.Ptr, reflect.Chan:
			continue
		}
		plan = append(plan, canonicalField{key: f.Name, index: i})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].key < plan[j].key })
	for i := range plan {
		plan[i].key = `"` + plan[i].key + `":` // Go identifiers need no escaping
		if i > 0 {
			plan[i].key = "," + plan[i].key
		}
	}
	return plan
}()

// CanonicalConfig returns the canonical JSON encoding of a configuration:
// every semantic exported field, keyed by field name, with keys sorted —
// so the encoding (and hence the cache key) is independent of struct field
// order but sensitive to every value change. Each value is encoded as
// encoding/json encodes it.
func CanonicalConfig(c sim.Config) []byte {
	v := reflect.ValueOf(&c).Elem()
	b := make([]byte, 0, 1024)
	b = append(b, '{')
	for _, f := range canonicalPlan {
		b = append(b, f.key...)
		b = appendJSON(b, v.Field(f.index))
	}
	return append(b, '}')
}

// appendJSON appends v's encoding/json encoding: booleans and integers
// (most of Config) directly, anything else through json.Marshal.
func appendJSON(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	}
	enc, err := json.Marshal(v.Interface())
	if err != nil {
		// Config holds only plain scalars and integer slices; encoding
		// cannot fail short of a programming error.
		panic(fmt.Sprintf("runner: canonical config encoding failed: %v", err))
	}
	return append(b, enc...)
}

// Key returns the content address of a configuration: the hex SHA-256 of
// its canonical encoding.
func Key(c sim.Config) string {
	sum := sha256.Sum256(CanonicalConfig(c))
	return hex.EncodeToString(sum[:])
}

// entry is one persisted line: the config's content address, a small human
// echo, and the completed Result.
type entry struct {
	Key    string          `json:"key"`
	Label  string          `json:"label,omitempty"`
	Load   float64         `json:"load,omitempty"`
	Result json.RawMessage `json:"result"`
}

// Cache is a disk-backed result cache shared by concurrent readers within
// a process and concurrent appender processes on one filesystem. Open
// loads every previously persisted complete line into memory; Put appends
// one JSONL record per completed run; Reload picks up records appended by
// other processes since the last load.
type Cache struct {
	dir  string
	log  *jsonlog.Log
	hits atomic.Int64
	miss atomic.Int64

	// entries points at the in-memory index (key → raw Result JSON).
	// Lookups are lock-free loads; Forget swaps in a fresh map.
	entries atomic.Pointer[sync.Map]

	err atomic.Pointer[error] // first persistence failure, reported at Close
}

// Open creates dir if needed and loads the persisted results.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	log, err := jsonlog.Open(filepath.Join(dir, cacheFile))
	if err != nil {
		return nil, fmt.Errorf("runner: cache open: %w", err)
	}
	c := &Cache{dir: dir, log: log}
	c.entries.Store(&sync.Map{})
	if err := c.Reload(); err != nil {
		log.Close()
		return nil, err
	}
	return c, nil
}

// Reload indexes the records appended to the store since the last
// Open/Reload, by this process or any other. Torn or foreign lines are
// skipped; those runs simply recompute.
func (c *Cache) Reload() error {
	m := c.entries.Load()
	err := c.log.Scan(func(line []byte) {
		var e entry
		if json.Unmarshal(line, &e) == nil && e.Key != "" && len(e.Result) > 0 {
			m.Store(e.Key, e.Result)
		}
	})
	if err != nil {
		return fmt.Errorf("runner: cache read: %w", err)
	}
	return nil
}

// Get returns the cached Result for a configuration, counting the lookup
// as a hit or miss. The lookup itself is lock-free.
func (c *Cache) Get(cfg sim.Config) (*stats.Result, bool) {
	_, res, ok := c.get(Key(cfg))
	return res, ok
}

// get returns the store's bytes under key and the Result they decode to.
// Bytes that do not decode count as one miss, not a hit, and the run
// recomputes.
func (c *Cache) get(key string) (json.RawMessage, *stats.Result, bool) {
	raw, ok := c.GetRaw(key)
	if !ok {
		return nil, nil, false
	}
	var res stats.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		c.hits.Add(-1)
		c.miss.Add(1)
		return nil, nil, false
	}
	return raw, &res, true
}

// GetRaw returns the persisted result bytes under a content address,
// counting the lookup as a hit or miss. Lock-free.
func (c *Cache) GetRaw(key string) (json.RawMessage, bool) {
	v, ok := c.entries.Load().Load(key)
	if !ok {
		c.miss.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v.(json.RawMessage), true
}

// Put records a completed Result under the configuration's content address
// and appends it to the JSONL file. Persistence failures never fail the
// run; the first one is kept and surfaced by Close.
func (c *Cache) Put(cfg sim.Config, res *stats.Result) {
	c.put(Key(cfg), res)
}

// put encodes res once, persists the bytes under key and returns them (nil
// when encoding failed).
func (c *Cache) put(key string, res *stats.Result) json.RawMessage {
	raw, err := json.Marshal(res)
	if err != nil {
		c.note(fmt.Errorf("runner: cache encode: %w", err))
		return nil
	}
	c.PutRaw(key, res.Label, res.Load, raw) // a failure is kept for Close
	return raw
}

// PutRaw records already-encoded result bytes under a content address and
// appends them to the store — the byte-preserving path a coordinator uses
// to persist a worker's response verbatim. An error means the bytes are
// served from memory but are not in the store; it is also kept for Close.
func (c *Cache) PutRaw(key, label string, load float64, raw json.RawMessage) error {
	line, err := json.Marshal(entry{Key: key, Label: label, Load: load, Result: raw})
	if err != nil {
		return c.note(fmt.Errorf("runner: cache encode: %w", err))
	}
	c.entries.Load().Store(key, raw)
	if err := c.log.Append(line); err != nil {
		return c.note(fmt.Errorf("runner: cache write: %w", err))
	}
	return nil
}

// AdoptRaw records result bytes in the in-memory index without appending
// to the store — for results another process has already persisted (a
// fleet worker that shares the cache directory).
func (c *Cache) AdoptRaw(key string, raw json.RawMessage) {
	c.entries.Load().Store(key, raw)
}

// note keeps err if it is the first persistence failure, and returns it.
func (c *Cache) note(err error) error {
	c.err.CompareAndSwap(nil, &err)
	return err
}

// Forget drops the in-memory index so every configuration recomputes (and
// is re-persisted); the CLIs use it for -resume=false.
func (c *Cache) Forget() {
	c.entries.Store(&sync.Map{})
}

// Len returns the number of distinct cached configurations.
func (c *Cache) Len() int {
	n := 0
	c.entries.Load().Range(func(_, _ interface{}) bool { n++; return true })
	return n
}

// Hits and Misses count Get/GetRaw outcomes since Open.
func (c *Cache) Hits() int64   { return c.hits.Load() }
func (c *Cache) Misses() int64 { return c.miss.Load() }

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Close closes the persistence file, returning the first persistence error
// encountered. Closing twice is harmless.
func (c *Cache) Close() error {
	if err := c.log.Close(); err != nil {
		c.note(fmt.Errorf("runner: cache close: %w", err))
	}
	if err := c.err.Load(); err != nil {
		return *err
	}
	return nil
}
