package obs

import (
	"fmt"
	"io"
	"sort"

	"flexsim/internal/stats"
)

// exposition accumulates Prometheus text format 0.0.4. It is the one
// writer under every /metrics: scalar, vec and summary each write a whole
// family — its HELP and TYPE, then all of its samples — so a family's
// lines are one group whatever order the sources gather their values in.
// Integers print as %d and floats as %.6f.
type exposition struct{ buf []byte }

// exposer is a source of families: Live, SweepProgress, FleetMetrics.
type exposer interface{ expose(*exposition) }

// writeExposition renders the sources in order and hands w one Write.
func writeExposition(w io.Writer, sources ...exposer) error {
	var e exposition
	for _, s := range sources {
		s.expose(&e)
	}
	_, err := w.Write(e.buf)
	return err
}

func (e *exposition) family(name, typ, help string) {
	e.buf = fmt.Appendf(e.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func sampleLine[V int64 | float64](e *exposition, name, labels string, v V) {
	format := "%s%s %d\n"
	if _, isFloat := any(v).(float64); isFloat {
		format = "%s%s %.6f\n"
	}
	e.buf = fmt.Appendf(e.buf, format, name, labels, v)
}

// scalar writes a family of one unlabelled sample.
func scalar[V int64 | float64](e *exposition, name, typ, help string, v V) {
	e.family(name, typ, help)
	sampleLine(e, name, "", v)
}

// vec writes a family with one sample per value of its one label, in
// sorted label order so that the text is deterministic.
func vec[V int64 | float64](e *exposition, name, typ, help, label string, samples map[string]V) {
	e.family(name, typ, help)
	values := make([]string, 0, len(samples))
	for v := range samples {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		sampleLine(e, name, fmt.Sprintf("{%s=%q}", label, v), samples[v])
	}
}

// summary writes h as a summary family: three quantiles, _sum and _count.
func (e *exposition) summary(name, help string, h *stats.Histogram) {
	e.family(name, "summary", help)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		sampleLine(e, name, fmt.Sprintf("{quantile=\"%g\"}", q), h.Quantile(q))
	}
	sampleLine(e, name+"_sum", "", h.Sum())
	sampleLine(e, name+"_count", "", h.Count())
}
