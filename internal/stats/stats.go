// Package stats defines the per-run measurement record (throughput,
// latency, congestion, deadlock characterization aggregates, cycle census)
// and the derived metrics the paper plots — normalized deadlocks, deadlock
// and resource set sizes, knot cycle densities, percent of messages blocked
// — plus plain-text and CSV table rendering for the experiment harness.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Result is the measurement record of one simulation run (the measurement
// phase only; warmup is excluded).
type Result struct {
	// Configuration echo.
	Label      string  // free-form run label, e.g. "DOR1 uni"
	Load       float64 // normalized offered load
	Cycles     int64   // measured cycles
	Nodes      int
	MeanMsgLen float64 // expected message length in flits
	Seed       uint64
	Saturated  bool // offered load exceeded sustained delivery (source queues grew)
	// Interrupted reports that the run was cancelled mid-flight (context
	// cancellation or timeout). Counters cover only the cycles executed
	// before the stop, and interrupted results are never cached.
	Interrupted bool

	// QueuedStart/QueuedEnd are the source-queue backlogs at the
	// measurement boundaries; sustained growth defines saturation.
	QueuedStart int
	QueuedEnd   int

	// Offered and delivered work.
	Generated      int64 // messages generated during measurement
	GeneratedFlits int64 // their total length in flits
	Delivered      int64 // messages delivered (including recovered victims)
	DeliveredFlits int64 // their total length in flits
	Recovered      int64 // victims absorbed by deadlock recovery
	SumLatency     int64 // Σ (deliver - create) over normally delivered messages
	LatencyN       int64 // count behind SumLatency
	// Latency is the full latency distribution of normally delivered
	// messages (deadlock recovery produces heavy tails a mean hides).
	Latency Histogram

	// Time-averaged occupancy (sampled every cycle).
	MeanActive  float64 // messages holding network resources
	MeanBlocked float64 // messages blocked at the header
	MeanQueued  float64 // messages waiting at sources
	MeanFlits   float64 // flits resident in edge buffers
	PeakActive  int

	// Deadlock aggregates (from the detector).
	Deadlocks      int64
	SingleCycle    int64
	MultiCycle     int64
	SumDeadlockSet int64
	SumResourceSet int64
	SumKnotVCs     int64
	SumKnotCycles  int64
	SumDependent   int64
	MaxDeadlockSet int
	MaxResourceSet int
	MaxKnotCycles  int

	// Cycle census (when enabled).
	CensusSamples int64
	SumCycles     int64
	MaxCycles     int
	CensusCapped  bool

	// Detector invocation accounting: total detection passes during
	// measurement and how many were change-gated (skipped rebuilding an
	// unchanged CWG).
	Invocations      int64
	GatedInvocations int64

	// Detector timing over full (non-gated) passes, in nanoseconds:
	// CWG snapshot+build versus knot analysis. Wall-clock, so values vary
	// run to run even at a fixed seed.
	DetectBuildTime   Histogram
	DetectAnalyzeTime Histogram

	// Fault injection (whole run, not just the measurement window, since
	// a schedule spans warmup too). FaultEvents counts schedule events
	// applied; FaultsActiveEnd is the failed-resource count at the end of
	// the run; Killed counts messages removed by faults, and Unroutable
	// the subset dropped because no live route to their destination
	// remained on the surviving graph.
	FaultEvents     int64
	FaultsActiveEnd int
	Killed          int64
	Unroutable      int64
}

// Simulated returns r with its two wall-clock histograms (DetectBuildTime,
// DetectAnalyzeTime) zeroed: what a seeded simulation determines, and so what
// two runs of one configuration are compared by.
func (r *Result) Simulated() Result {
	s := *r
	s.DetectBuildTime, s.DetectAnalyzeTime = Histogram{}, Histogram{}
	return s
}

// NormalizedDeadlocks returns deadlocks per message delivered (the paper's
// headline metric). Zero when nothing was delivered.
func (r *Result) NormalizedDeadlocks() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.Deadlocks) / float64(r.Delivered)
}

// NormalizedCycles returns cycle-census observations per message delivered
// (the paper's "normalized cycles" curve).
func (r *Result) NormalizedCycles() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.SumCycles) / float64(r.Delivered)
}

// DeadlocksPerInNetworkMsg normalizes deadlocks by the average number of
// messages resident in the network (Fig. 8b's x/y pairing support).
func (r *Result) DeadlocksPerInNetworkMsg() float64 {
	if r.MeanActive == 0 {
		return 0
	}
	return float64(r.Deadlocks) / r.MeanActive
}

// MeanLatency returns the mean source-queue-to-delivery latency in cycles.
func (r *Result) MeanLatency() float64 {
	if r.LatencyN == 0 {
		return 0
	}
	return float64(r.SumLatency) / float64(r.LatencyN)
}

// Throughput returns delivered flits per node per cycle.
func (r *Result) Throughput() float64 {
	if r.Cycles == 0 || r.Nodes == 0 {
		return 0
	}
	return float64(r.DeliveredFlits) / float64(r.Cycles) / float64(r.Nodes)
}

// OfferedRate returns generated flits per node per cycle.
func (r *Result) OfferedRate() float64 {
	if r.Cycles == 0 || r.Nodes == 0 {
		return 0
	}
	return float64(r.GeneratedFlits) / float64(r.Cycles) / float64(r.Nodes)
}

// MeanDeadlockSet returns the average deadlock set size.
func (r *Result) MeanDeadlockSet() float64 { return ratio(r.SumDeadlockSet, r.Deadlocks) }

// MeanResourceSet returns the average resource set size.
func (r *Result) MeanResourceSet() float64 { return ratio(r.SumResourceSet, r.Deadlocks) }

// MeanKnotCycles returns the average knot cycle density.
func (r *Result) MeanKnotCycles() float64 { return ratio(r.SumKnotCycles, r.Deadlocks) }

// MeanDependent returns the average number of dependent messages per
// deadlock.
func (r *Result) MeanDependent() float64 { return ratio(r.SumDependent, r.Deadlocks) }

// MeanCensusCycles returns the average cycle count per detector invocation.
func (r *Result) MeanCensusCycles() float64 { return ratio(r.SumCycles, r.CensusSamples) }

// BlockedFraction returns the time-averaged fraction of in-network messages
// that are blocked (the paper's "% messages blocked").
func (r *Result) BlockedFraction() float64 {
	if r.MeanActive == 0 {
		return 0
	}
	return r.MeanBlocked / r.MeanActive
}

// KilledFraction returns the fraction of settled messages (delivered or
// killed) that fault injection removed.
func (r *Result) KilledFraction() float64 {
	den := r.Delivered + r.Killed
	if den == 0 {
		return 0
	}
	return float64(r.Killed) / float64(den)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s load=%.3f: thr=%.4f lat=%.1f ndl=%.5f (%d dl / %d msg) blocked=%.1f%% sat=%v",
		r.Label, r.Load, r.Throughput(), r.MeanLatency(), r.NormalizedDeadlocks(),
		r.Deadlocks, r.Delivered, 100*r.BlockedFraction(), r.Saturated)
}

// Table is a simple column-aligned table with CSV export, used by the
// experiment harness to print the paper's figures as rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells render with %v, floats with %.5g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.5g", v)
		case float32:
			row[i] = fmt.Sprintf("%.5g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-form footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteText renders the table with aligned columns. Ragged rows are
// tolerated: rows wider than the header grow extra (unheaded) columns, rows
// narrower leave trailing columns empty.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", width, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (RFC-4180 quoting for cells containing
// commas or quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
