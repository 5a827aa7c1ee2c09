package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"flexsim/internal/jsonlog"
)

// Recorder accumulates one run's interval samples, append-only, so a
// multi-hour sweep run records millions of samples without per-sample
// allocation beyond amortized slice growth. A Recorder belongs to one run
// and is not safe for concurrent use; cross-run aggregation happens in a
// RunSink.
type Recorder struct {
	// Every is the sampling period in cycles.
	Every int

	samples []Gauges
}

// DefaultEvery is the sampling cadence used when a caller enables metrics
// without choosing one.
const DefaultEvery = 100

// NewRecorder returns a recorder sampling every `every` cycles (<= 0 uses
// DefaultEvery).
func NewRecorder(every int) *Recorder {
	if every <= 0 {
		every = DefaultEvery
	}
	return &Recorder{Every: every}
}

// Record appends one sample.
func (r *Recorder) Record(g Gauges) { r.samples = append(r.samples, g) }

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return len(r.samples) }

// At returns sample i.
func (r *Recorder) At(i int) Gauges { return r.samples[i] }

// RunMeta identifies the run a recorded series belongs to.
type RunMeta struct {
	Label string
	Seed  uint64
	Load  float64
}

// RunSink receives a finished run's recorded series. Implementations must
// be safe for concurrent use (sweeps flush many runs from worker
// goroutines) and must keep I/O errors sticky rather than failing the run.
type RunSink interface {
	Run(meta RunMeta, rec *Recorder)
}

// metricsColumns is the stable schema of the exported series: the run's
// identity, then every declared gauge. Changing it is a breaking change for
// downstream tooling (golden-file tested).
var metricsColumns = func() []string {
	cols := []string{"label", "seed", "load"}
	for _, d := range gauges {
		cols = append(cols, d.col)
	}
	return cols
}()

// rowWriter is the locked writer with a sticky error under both series sinks.
type rowWriter struct {
	mu     sync.Mutex
	w      io.Writer
	err    error
	header string // written before the first rows, then cleared
}

// flush writes one run's rendered rows, unless an earlier write failed.
func (s *rowWriter) flush(rows []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if s.header != "" {
		rows = append([]byte(s.header), rows...)
		s.header = ""
	}
	_, s.err = s.w.Write(rows)
}

// Err returns the first write error, if any.
func (s *rowWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// CSVSink writes every flushed run as CSV rows under a single header.
type CSVSink struct{ rowWriter }

// NewCSVSink returns a CSV sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{rowWriter{w: w, header: strings.Join(metricsColumns, ",") + "\n"}}
}

// Run implements RunSink.
func (s *CSVSink) Run(meta RunMeta, rec *Recorder) {
	run := fmt.Sprintf("%s,%d,%g", csvEscape(meta.Label), meta.Seed, meta.Load)
	var b []byte
	for i := range rec.samples {
		b = append(b, run...)
		for _, d := range gauges {
			b = strconv.AppendInt(append(b, ','), d.get(&rec.samples[i]), 10)
		}
		b = append(b, '\n')
	}
	s.flush(b)
}

// csvEscape quotes a label containing CSV metacharacters (RFC 4180).
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// JSONLSink writes every flushed run as one JSON object per sample.
type JSONLSink struct{ rowWriter }

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{rowWriter{w: w}} }

// Run implements RunSink.
func (s *JSONLSink) Run(meta RunMeta, rec *Recorder) {
	run := fmt.Sprintf(`{"label":%s,"seed":%d,"load":%g`, jsonlog.AppendString(nil, meta.Label), meta.Seed, meta.Load)
	var b []byte
	for i := range rec.samples {
		b = append(b, run...)
		for _, d := range gauges {
			b = strconv.AppendInt(append(b, `,"`+d.col+`":`...), d.get(&rec.samples[i]), 10)
		}
		b = append(b, "}\n"...)
	}
	s.flush(b)
}

// SinkFor chooses a sink by file extension: ".jsonl"/".json" produce JSONL,
// anything else CSV. The returned Err func reports the sink's sticky error.
func SinkFor(path string, w io.Writer) (sink RunSink, errf func() error) {
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
		s := NewJSONLSink(w)
		return s, s.Err
	}
	s := NewCSVSink(w)
	return s, s.Err
}
