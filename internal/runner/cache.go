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
	"bytes"
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

// canonicalField is one sim.Spec field in the canonical encoding.
type canonicalField struct {
	key   string // `"Name":`, preceded by "," for all but the first field
	index int    // position in sim.Spec
	enc   *jsonlog.Encoder
}

// canonicalPlan lists the fields of sim.Spec sorted by name — the order
// encoding/json gives map keys, so the encoding is that of a map[name]value
// without building and sorting one per call. What is semantic is decided by
// the type: sim.Instrumentation (observability and the shard count, which
// never change a Result) is not walked, so toggling it or re-running on a
// different core count does not invalidate finished runs.
var canonicalPlan = func() []canonicalField {
	t := reflect.TypeOf(sim.Spec{})
	plan := make([]canonicalField, t.NumField())
	for i := range plan {
		plan[i] = canonicalField{key: t.Field(i).Name, index: i, enc: jsonlog.EncoderOf(t.Field(i).Type)}
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
// every field of its Spec, keyed by field name, with keys sorted — so the
// encoding (and hence the cache key) is independent of struct field order
// but sensitive to every value change. Each value is encoded as
// encoding/json encodes it, by jsonlog's writer.
func CanonicalConfig(c sim.Config) []byte {
	v := reflect.ValueOf(c.Spec)
	b := make([]byte, 0, 1024)
	b = append(b, '{')
	for _, f := range canonicalPlan {
		var err error
		if b, err = f.enc.Append(append(b, f.key...), v.Field(f.index)); err != nil {
			// Config holds only plain scalars and integer slices; encoding
			// cannot fail short of a programming error.
			panic(fmt.Sprintf("runner: canonical config encoding failed: %v", err))
		}
	}
	return append(b, '}')
}

// Key returns the content address of a configuration: the hex SHA-256 of
// its canonical encoding.
func Key(c sim.Config) string {
	sum := sha256.Sum256(CanonicalConfig(c))
	return hex.EncodeToString(sum[:])
}

// entry is one persisted line: the config's content address, a small human
// echo, and the completed Result. PutRaw writes it with jsonlog.Append, which
// copies the result bytes, and Reload reads it back with splitEntry; a line
// in any other shape decodes into it.
type entry struct {
	Key    string          `json:"key"`
	Label  string          `json:"label,omitempty"`
	Load   float64         `json:"load,omitempty"`
	Result json.RawMessage `json:"result"`
}

// splitEntry recognises the line PutRaw writes by reading only its
// envelope — {"key":"<plain>"[,"label":"<plain>"][,"load":<number>],"result":{…}}
// with nothing escaped and no whitespace — and returns the key and the
// result object's bytes within line, without looking inside them; payload
// is nil for any other line, which is json.Unmarshal's to judge. It is
// strict so that validating the payload is all that is left: if payload is
// one valid JSON value, the line is valid JSON that json.Unmarshal decodes
// into an entry with this key and these bytes as Result.
func splitEntry(line []byte) (key, payload []byte) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	n := jsonlog.PlainLen(rest)
	if !ok || n <= 0 {
		return nil, nil
	}
	key, rest = rest[:n], rest[n+1:]
	if r, ok := bytes.CutPrefix(rest, []byte(`,"label":"`)); ok {
		if n = jsonlog.PlainLen(r); n < 0 {
			return nil, nil
		}
		rest = r[n+1:]
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"load":`)); ok {
		// Only the number PutRaw writes for the value is taken: that
		// one is in JSON's grammar and in float64's range.
		n = max(bytes.IndexByte(r, ','), 0)
		f, err := strconv.ParseFloat(string(r[:n]), 64)
		if b, ferr := jsonlog.AppendFloat(make([]byte, 0, 32), f); err != nil || ferr != nil || !bytes.Equal(b, r[:n]) {
			return nil, nil
		}
		rest = r[n:]
	}
	if !bytes.HasPrefix(rest, []byte(`,"result":{`)) || !bytes.HasSuffix(rest, []byte(`}}`)) {
		return nil, nil
	}
	return key, rest[len(`,"result":`) : len(rest)-1]
}

// span locates a result payload in the store file: n bytes at offset off.
// The file is append-only and never rewritten, so a span stays good for as
// long as the file does.
type span struct {
	off int64
	n   int
}

// Cache is a disk-backed result cache shared by concurrent readers within
// a process and concurrent appender processes on one filesystem. Open
// indexes every previously persisted complete line; Put appends one JSONL
// record per completed run; Reload picks up records appended by other
// processes since the last load.
//
// The store's bytes are opaque to the index. A line is located, not
// decoded: the index keeps where its result sits in the file, and the first
// lookup of the key reads those bytes, validates them once and keeps them
// (DESIGN.md, "Validation on first hit"). Bytes that do not validate are
// one miss; the entry is dropped and the run recomputes.
type Cache struct {
	dir  string
	log  *jsonlog.Log
	hits atomic.Int64
	miss atomic.Int64

	// entries points at the in-memory index: key → json.RawMessage (bytes
	// known valid: this handle's Put, an AdoptRaw, a validated hit) or span
	// (a line some process appended, not yet looked at). Lookups are
	// lock-free loads; Forget swaps in a fresh map.
	entries atomic.Pointer[sync.Map]

	err atomic.Pointer[error] // first persistence failure, reported at Close
}

// Open creates dir if needed and indexes the persisted results.
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
// Open/Reload, by this process or any other. A line in the shape PutRaw
// writes is indexed by position without reading its payload; any other
// line is decoded, and skipped if it does not decode (torn or foreign:
// those runs simply recompute). The last line of a key wins, except that
// bytes already in memory are never given up for a line on disk.
func (c *Cache) Reload() error {
	m := c.entries.Load()
	err := c.log.Scan(func(off int64, line []byte) {
		key, payload := splitEntry(line)
		var v any
		if payload != nil {
			v = span{off + int64(len(line)-1-len(payload)), len(payload)}
		} else {
			var e entry
			if json.Unmarshal(line, &e) != nil || e.Key == "" || len(e.Result) == 0 {
				return
			}
			key, v = []byte(e.Key), e.Result
		}
		k := string(key)
		if old, loaded := m.LoadOrStore(k, v); loaded {
			if sp, unread := old.(span); unread {
				m.CompareAndSwap(k, sp, v)
			}
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
// Bytes that do not decode count as one miss, and the run recomputes.
func (c *Cache) get(key string) (json.RawMessage, *stats.Result, bool) {
	var res stats.Result
	raw, ok := c.lookup(key, &res)
	if !ok {
		return nil, nil, false
	}
	return raw, &res, true
}

// GetRaw returns the persisted result bytes under a content address,
// counting the lookup as a hit or miss. Lock-free.
func (c *Cache) GetRaw(key string) (json.RawMessage, bool) {
	return c.lookup(key, nil)
}

// lookup returns the bytes under key and counts the hit or miss. Bytes
// still on disk are read and validated here, on their first use, then kept:
// decoding them into res is the validation when the caller wants the Result
// anyway, otherwise jsonlog's verbatim scan (it accepts no invalid JSON), then
// json.Valid for what it declines. A short read (the file was truncated under
// us) or bytes that fail is a miss, and the entry is dropped so that the
// re-run's Put serves from memory.
func (c *Cache) lookup(key string, res *stats.Result) (json.RawMessage, bool) {
	m := c.entries.Load()
	v, ok := m.Load(key)
	raw, _ := v.(json.RawMessage)
	sp, unread := v.(span)
	if unread {
		raw = make(json.RawMessage, sp.n)
		_, err := c.log.ReadAt(raw, sp.off)
		ok = err == nil
	}
	switch {
	case !ok:
	case res != nil:
		ok = stats.DecodeResult(raw, res) == nil
	case unread:
		ok = jsonlog.VerbatimLen(raw) == len(raw) || json.Valid(raw)
	}
	if unread && ok {
		m.CompareAndSwap(key, sp, raw)
	} else if unread {
		m.CompareAndDelete(key, sp)
	}
	if !ok {
		c.miss.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return raw, true
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
	raw, err := stats.EncodeResult(res)
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
	line, err := jsonlog.Append(make([]byte, 0, len(key)+len(label)+len(raw)+64), &entry{key, label, load, raw})
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

// Len returns the number of distinct keys indexed. A line counts from the
// Reload that found it, so one whose payload turns out corrupt counts until
// its first lookup drops it.
func (c *Cache) Len() int {
	n := 0
	c.entries.Load().Range(func(_, _ interface{}) bool { n++; return true })
	return n
}

// Hits and Misses count lookup outcomes since Open: Get's, GetRaw's and
// those of Map's lookup stage, which runs them on several goroutines.
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
