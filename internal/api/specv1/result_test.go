package specv1

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"flexsim/internal/runner"
	"flexsim/internal/stats"
)

// TestStatusIsRunnerStatus: the wire's four point statuses are runner's
// strings, so that Status(p.Status) is the whole conversion.
func TestStatusIsRunnerStatus(t *testing.T) {
	for r, s := range map[runner.Status]Status{
		runner.Done: StatusDone, runner.Cached: StatusCached,
		runner.Failed: StatusFailed, runner.Cancelled: StatusCancelled,
	} {
		if Status(r) != s {
			t.Errorf("runner.%s converts to %q, want %q", r, Status(r), s)
		}
	}
}

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

// TestSpliceMatchesJSON: WriteResults builds each line around the payload's
// own bytes; the stream must be json.Encoder's byte for byte — every
// omitempty member either way, strings that need escaping, loads either side
// of the exponent thresholds, payloads that must be compacted or HTML-escaped
// — and fail exactly when the encoder would.
func TestSpliceMatchesJSON(t *testing.T) {
	texts := []string{"", "w1", "127.0.0.1:8611", `quo"te`, "naïve", "<a&b>", "panic: x\n\tat y", "bad\xff"}
	loads := []float64{0, 0.05, 0.5, 1e-7, 1e21, 5e-324, -1.0 / 3, math.NaN()}
	payloads := []string{"", `{"x":1}`, `{ "x" : 1 }`, "{\"x\":\"a b\"}\n", `{"x":"<b>&"}`, `{"x":"\u2028"}`, "{\"x\":\"\u2028\"}", `{"x":"\""}`,
		"{\"x\":\"raw\nnewline\"}", `null`, `{"a":tru}`, `{"x":1}}`}
	n := 0
	for i, text := range texts {
		for j, load := range loads {
			for k, payload := range payloads {
				pr := PointResult{SchemaVersion: Version, Index: n, Load: load, Status: Status(texts[(i+1)%len(texts)]),
					Key: texts[(i+j)%len(texts)], Worker: text, Attempts: (j + k) % 3, Trace: texts[(i+k)%len(texts)],
					Error: texts[(j+k)%len(texts)], Result: json.RawMessage(payload)}
				n++
				var want, got bytes.Buffer
				werr := json.NewEncoder(&want).Encode(&pr)
				err := WriteResults(&got, []PointResult{pr})
				if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("WriteResults(%+v) = %q, %v; json.Encoder %q, %v", pr, got.Bytes(), err, want.Bytes(), werr)
				}
			}
		}
	}
}

// BenchmarkWriteResults is the wire writer over store-shaped payloads.
func BenchmarkWriteResults(b *testing.B) {
	raw, err := EncodeResult(benchResult())
	if err != nil {
		b.Fatal(err)
	}
	results := make([]PointResult, 256)
	for i := range results {
		results[i] = PointResult{SchemaVersion: Version, Index: i, Load: 0.35, Status: StatusCached, Key: "fd0d070ddc9de7102ca9716e3ee489526aec387bafdea097bd9e81bd56b89523", Result: raw}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteResults(io.Discard, results); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(results))/1e3, "µs/point")
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

// BenchmarkEncodeResult is what a completed point pays to become the bytes
// the store persists and the wire carries.
func BenchmarkEncodeResult(b *testing.B) {
	res := benchResult()
	raw, err := EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResult is what a store hit pays to turn its bytes back
// into a Result; the three histograms are most of the input. The stored form
// goes through jsonlog's one-pass reader; the same result indented is read
// too, but its histograms are outside their own grammar and go to
// encoding/json, member by member.
func BenchmarkDecodeResult(b *testing.B) {
	canonical, err := EncodeResult(benchResult())
	if err != nil {
		b.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name string
		raw  json.RawMessage
	}{{"canonical", canonical}, {"fallback", indented.Bytes()}} {
		raw := path.raw
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if resultSink, err = DecodeResult(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeResultAllocs pins the canonical path: the Result, its label and
// the three histograms' buckets. encoding/json needs 14 for the same bytes,
// so a decode that slid back to it fails here.
func TestDecodeResultAllocs(t *testing.T) {
	raw, err := EncodeResult(benchResult())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if resultSink, err = DecodeResult(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("decoding a canonical result allocated %.0f times, want at most 5", allocs)
	}
}
