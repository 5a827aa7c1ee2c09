package specv1

import (
	"errors"
	"strings"
	"testing"

	"flexsim/internal/stats"
)

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n < len(p) {
		return 0, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteResultsReportsFlushError: results are written through a buffer,
// so a failing destination surfaces at the flush — and must surface.
func TestWriteResultsReportsFlushError(t *testing.T) {
	raw, _ := EncodeResult(&stats.Result{Label: "x", Delivered: 1})
	results := []PointResult{{SchemaVersion: Version, Status: StatusDone, Result: raw}}
	if err := WriteResults(&failAfter{}, results); !errors.Is(err, errDiskFull) {
		t.Errorf("short destination: err = %v, want the write error", err)
	}
	var sb strings.Builder
	if err := WriteResults(&sb, results); err != nil || !strings.HasSuffix(sb.String(), "}\n") {
		t.Errorf("WriteResults = %v, wrote %q", err, sb.String())
	}
}

// benchResult is shaped like a benchmark point's result (4-ary 2-cube, 400
// measured cycles): ~70 latency buckets and two pre-grown detector timing
// histograms of ~130 buckets, ~1.8 KB encoded.
func benchResult() *stats.Result {
	res := &stats.Result{Label: "tfar1", Load: 0.35, Cycles: 400, Nodes: 16, MeanMsgLen: 32, Seed: 7972408045597865681,
		Generated: 118, GeneratedFlits: 3776, Delivered: 79, DeliveredFlits: 2528, SumLatency: 9230, LatencyN: 79,
		MeanActive: 9.905, MeanBlocked: 1.25, MeanQueued: 20.045, MeanFlits: 52.4, PeakActive: 14, Invocations: 8, GatedInvocations: 2}
	for i := int64(0); i < 79; i++ {
		res.Latency.Observe(34 + i*i%97)
	}
	res.DetectBuildTime.Grow(1e9)
	res.DetectAnalyzeTime.Grow(1e9)
	for i := int64(0); i < 6; i++ {
		res.DetectBuildTime.Observe(300 + 120*i)
		res.DetectAnalyzeTime.Observe(250 + 110*i)
	}
	return res
}

var resultSink *stats.Result

// BenchmarkDecodeResult is what a store hit pays to turn its bytes back
// into a Result; the three histograms are most of the input.
func BenchmarkDecodeResult(b *testing.B) {
	raw, err := EncodeResult(benchResult())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resultSink, err = DecodeResult(raw); err != nil {
			b.Fatal(err)
		}
	}
}
