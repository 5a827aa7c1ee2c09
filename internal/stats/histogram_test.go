package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"flexsim/internal/jsonlog"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	if h.String() != "no samples" {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 64; v++ {
		h.Observe(v)
	}
	if h.Count() != 64 || h.Max() != 63 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d", got)
	}
	if got := h.Quantile(1); got != 63 {
		t.Errorf("p100 = %d", got)
	}
	if got := h.Quantile(0.5); got < 30 || got > 33 {
		t.Errorf("p50 = %d", got)
	}
	if math.Abs(h.Mean()-31.5) > 1e-9 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Quantiles of large samples must be within ~5% of the true value.
	var h Histogram
	const n = 100000
	for i := int64(1); i <= n; i++ {
		h.Observe(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := q * n
		got := float64(h.Quantile(q))
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("q=%.2f: got %v, want ~%v", q, got, want)
		}
	}
	if h.Max() != n {
		t.Errorf("max = %d", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatal("negative sample not clamped")
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	var h Histogram
	h.Observe(10)
	if h.Quantile(-1) != 10 || h.Quantile(2) != 10 {
		t.Error("out-of-range quantiles not clamped")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Observe(i)
		b.Observe(i + 1000)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 1099 {
		t.Errorf("merged max = %d", a.Max())
	}
	if got := a.Quantile(0.25); got > 100 {
		t.Errorf("p25 = %d, should come from the low half", got)
	}
	if got := a.Quantile(0.75); got < 900 {
		t.Errorf("p75 = %d, should come from the high half", got)
	}
	var empty Histogram
	a.Merge(&empty) // must be a no-op
	if a.Count() != 200 {
		t.Error("merging empty changed count")
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Observe(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Count() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(50)
	h.Observe(5000)
	s := h.String()
	for _, want := range []string{"n=2", "p50=", "max=5000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestHistogramGrowPreventsAllocation(t *testing.T) {
	var h Histogram
	h.Grow(1e9)
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(723456789)
		h.Observe(12)
	})
	if allocs != 0 {
		t.Errorf("Observe after Grow allocated %.1f times per run", allocs)
	}
	if h.Count() == 0 || h.Max() != 723456789 {
		t.Errorf("unexpected state after observes: %s", h.String())
	}
	h.Grow(-1) // no-op
	h.Grow(5)  // smaller than current capacity: no-op
	if got := h.Quantile(1); got < 600000000 {
		t.Errorf("max quantile collapsed after Grow: %d", got)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 5, 63, 64, 100, 5000, 123456} {
		h.Observe(v)
	}
	a, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Mean() != h.Mean() || back.Max() != h.Max() {
		t.Errorf("round trip lost aggregates: %s vs %s", back.String(), h.String())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Errorf("q%.2f: %d vs %d", q, back.Quantile(q), h.Quantile(q))
		}
	}
	b, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("re-encode not byte-identical:\n a %s\n b %s", a, b)
	}
}

// TestHistogramJSONTrimsGrow: Grow pre-allocation must not leak into the
// encoding — cache keys and resume round trips depend on canonical output.
func TestHistogramJSONTrimsGrow(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	b.Grow(1 << 20)
	b.Observe(10)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("Grow changed the encoding:\n plain %s\n grown %s", ja, jb)
	}
}

func TestHistogramJSONEmpty(t *testing.T) {
	var h Histogram
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 || back.Max() != 0 {
		t.Errorf("empty round trip: %s", back.String())
	}
	back.Observe(3) // must still be usable after decode
	if back.Count() != 1 {
		t.Errorf("decoded histogram unusable: %s", back.String())
	}
}

// TestHistogramMergeCopiesOccupiedRange: Merge into a zero Histogram is how
// a finished run's Result is detached from its simulator, so the copy must
// be sized to the samples, not to the source's Grow pre-allocation.
func TestHistogramMergeCopiesOccupiedRange(t *testing.T) {
	var src Histogram
	src.Grow(1e9) // the detector's pass timers: 502 buckets
	for v := int64(100); v < 108; v++ {
		src.Observe(v)
	}
	var dst Histogram
	dst.Merge(&src)
	if want := bucketOf(107) + 1; len(dst.counts) != want || cap(dst.counts) != want {
		t.Errorf("merged copy has %d buckets (cap %d) for samples up to bucket %d; source has %d",
			len(dst.counts), cap(dst.counts), want-1, len(src.counts))
	}
	a, _ := json.Marshal(src)
	b, _ := json.Marshal(dst)
	if string(a) != string(b) {
		t.Errorf("merged copy encodes differently:\n src %s\n dst %s", a, b)
	}
}

// storeFixture is a store written by the commit before the one-pass decoder
// (see the runner package's cross-version test): four bench-shaped results,
// three histograms each.
const storeFixture = "../runner/testdata/parent_store/results.jsonl"

// FuzzHistogramJSON holds the one-pass decoder to encoding/json, which it
// replaced: on every input both must fail or both succeed with the same
// value, and whatever MarshalJSON produces must be inside the one-pass
// grammar and decode/re-encode byte-identically.
func FuzzHistogramJSON(f *testing.F) {
	store, err := os.ReadFile(storeFixture)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(store), []byte("\n")) {
		var e struct {
			Result struct{ Latency, DetectBuildTime, DetectAnalyzeTime json.RawMessage }
		}
		if err := json.Unmarshal(line, &e); err != nil {
			f.Fatal(err)
		}
		for _, h := range []json.RawMessage{e.Result.Latency, e.Result.DetectBuildTime, e.Result.DetectAnalyzeTime} {
			if len(h) == 0 {
				f.Fatalf("fixture line without three histograms: %s", line)
			}
			f.Add([]byte(h))
		}
	}
	for _, s := range []string{
		`{}`, `null`, ``, `{`, `[]`, `0`, `"x"`, `{"counts":[1,2,3],"total":6,"sum":3,"max":2}`,
		`{"counts":[5]}`, `{"total":7}`, `{"sum":7}`, `{"max":7}`, `{"total":7,"max":3}`, `{"counts":[1],"max":3}`,
		`{"counts":[]}`, `{"counts":null}`, `{"counts":[],"total":1}`, `{"total":0,"sum":0,"max":0}`,
		`{"counts":[01],"total":1}`, `{"counts":[1],"total":007}`, `{"counts":[-0,-1],"total":-3}`,
		`{"counts":[-],"total":1}`, `{"counts":[1,],"total":1}`, `{"counts":[,1]}`, `{"counts":[1 2]}`,
		`{"total":9223372036854775807}`, `{"total":9223372036854775808}`,
		`{"total":-9223372036854775808}`, `{"total":-9223372036854775809}`,
		`{"total":18446744073709551616}`, `{"total":99999999999999999999999}`,
		`{"counts":[1e2],"total":1}`, `{"counts":[1.0]}`, `{"total":1.5}`, `{"total":1E+2}`, `{"total":"1"}`, `{"total":true}`,
		` {"total":1}`, `{"total":1} `, `{ "total":1}`, `{"total": 1}`, `{"total":1 ,"sum":2}`, "{\"counts\":[1,\n2]}",
		`{"sum":1,"total":2}`, `{"max":1,"counts":[2]}`, `{"total":1,"total":2}`, `{"counts":[1],"counts":[2,3]}`,
		`{"Total":1}`, `{"TOTAL":1,"total":2}`, `{"extra":1}`, `{"counts":[1],"extra":{"a":[1,2]},"total":1}`,
		`{"total":1,}`, `{,"total":1}`, `{"total":1}}`, `{"total":1}x`, `{"total"}`, `{"total":}`, `{"total":1`,
		`{"counts":[1,2`, `{"counts":[1,2]`, `{"counts":[1,2],`, `{"counts":[1,2],"total"`, `{"counts":[[1]]}`,
		`{"counts":[1],"total":1,"sum":2,"max":3,"more":4}`, `{"counts":{"a":1}}`, `{"counts":"1,2"}`,
	} {
		f.Add([]byte(s))
	}
	for _, l := range ZeroRunLists() {
		f.Add([]byte(`{"counts":` + l + `,"total":1}`))
	}
	f.Fuzz(checkHistogramJSON)
}

// checkHistogramJSON holds UnmarshalJSON to encoding/json on data, and
// MarshalJSON's output to encoding/json's of the trimmed wire form, the
// one-pass grammar and a byte-identical round trip.
func checkHistogramJSON(t *testing.T, data []byte) {
	t.Helper()
	var got Histogram
	gotErr := got.UnmarshalJSON(data)
	var w histogramJSON
	wantErr := json.Unmarshal(data, &w)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: one-pass error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if wantErr != nil {
		if !reflect.DeepEqual(got, Histogram{}) {
			t.Fatalf("%q: rejected, yet the histogram was written: %+v", data, got)
		}
		return
	}
	want := Histogram{counts: w.Counts, total: w.Total, sum: w.Sum, max: w.Max}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: one-pass %+v, encoding/json %+v", data, got, want)
	}
	enc, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if spec, _ := json.Marshal(histogramJSON{trimmed(got.counts), got.total, got.sum, got.max}); !bytes.Equal(enc, spec) {
		t.Fatalf("%q: MarshalJSON %s, encoding/json %s", data, enc, spec)
	}
	fast, ok := parseCanonical(enc)
	if !ok {
		t.Fatalf("MarshalJSON output %s is outside the one-pass grammar", enc)
	}
	if cap(fast.Counts) != len(fast.Counts) {
		t.Errorf("%s: counts decoded with cap %d for %d buckets", enc, cap(fast.Counts), len(fast.Counts))
	}
	var back Histogram
	if err := back.UnmarshalJSON(enc); err != nil {
		t.Fatal(err)
	}
	if again, _ := back.MarshalJSON(); !bytes.Equal(enc, again) {
		t.Fatalf("%q: re-encode drifted:\n first %s\n again %s", data, enc, again)
	}
}

// ZeroRunLists are count lists either side of every edge of parseCanonical's
// four-zero skip: each list of 1 to 13 buckets that is all empty or has one
// non-empty bucket (7, 10 or -0) — so runs of every length, a run that ends
// the list and a run cut by a non-zero — and runs that leave the grammar.
// Exported for FuzzDecodeResult's seeds.
func ZeroRunLists() []string {
	lists := []string{`[0,0,0,0,]`, `[0,0,0,0`, `[0,0,0,0,0`, `[0,0,0,0,0,0,0,0,]`, `[0,0,0,0,,0]`, `[0,0,0,0,00]`,
		`[0,0,0,0 ,0]`, `[0,0,0,0,x,0]`, `[0,0,0,0x0]`}
	for n := 1; n <= 13; n++ {
		elems := strings.Split(strings.Repeat("0,", n-1)+"0", ",")
		lists = append(lists, "["+strings.Join(elems, ",")+"]")
		for i := range elems {
			for _, v := range []string{"7", "10", "-0"} {
				elems[i] = v
				lists = append(lists, "["+strings.Join(elems, ",")+"]")
			}
			elems[i] = "0"
		}
	}
	return lists
}

// TestZeroRunBoundaries: the four-zero skip decodes what encoding/json does,
// and fails where it does, on every list in ZeroRunLists — as a histogram
// alone and inside a stored Result read by jsonlog.Unmarshal.
func TestZeroRunBoundaries(t *testing.T) {
	if w := binary.LittleEndian.Uint64([]byte("0,0,0,0,")); w != zeroRun {
		t.Fatalf("zeroRun is %#x, the word \"0,0,0,0,\" is %#x", uint64(zeroRun), w)
	}
	base, err := json.Marshal(&Result{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ZeroRunLists() {
		h := `{"counts":` + l + `,"total":1}`
		checkHistogramJSON(t, []byte(h))
		data := []byte(strings.Replace(string(base), `"Latency":{}`, `"Latency":`+h, 1))
		var got, want Result
		gotErr, wantErr := jsonlog.Unmarshal(data, &got), json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) || wantErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: jsonlog.Unmarshal error %v, encoding/json error %v", l, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n jsonlog.Unmarshal %+v\n json.Unmarshal    %+v", l, got.Latency, want.Latency)
		}
	}
}

// TestResetKeepsStorage: Reset empties a histogram to what a zero one
// encodes as, and keeps its buckets for the next samples.
func TestResetKeepsStorage(t *testing.T) {
	var h Histogram
	h.Grow(1 << 20)
	h.Observe(5)
	h.Observe(1 << 19)
	h.Reset()
	got, _ := json.Marshal(h)
	want, _ := json.Marshal(Histogram{})
	if string(got) != string(want) || h.Count() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Errorf("after Reset: %s (count %d, max %d, sum %d), want %s", got, h.Count(), h.Max(), h.Sum(), want)
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Observe(1 << 20) }); allocs != 0 {
		t.Errorf("Observe after Reset allocates %.0f times", allocs)
	}
}
