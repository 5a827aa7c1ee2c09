package stats_test

// External test package: a real run's Result comes from the simulator and
// its seed from specv1, and both import stats.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

func mustMarshal(tb testing.TB, res *stats.Result) []byte {
	tb.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// handResult is a Result whose every member is away from its zero value,
// with the values json.Marshal writes in their less usual forms: a negative
// zero, both exponent forms, the ends of the integer ranges.
func handResult() *stats.Result {
	res := &stats.Result{Label: "DOR1 uni (k=8, n=2) #7's", Load: math.Copysign(0, -1), Cycles: math.MaxInt64, Nodes: -16,
		MeanMsgLen: 1e-7, Seed: math.MaxUint64, Saturated: true, Interrupted: true, QueuedStart: 2, QueuedEnd: math.MaxInt32,
		Generated: math.MinInt64, GeneratedFlits: 3776, Delivered: 79, DeliveredFlits: 2528, Recovered: 3, SumLatency: 9230, LatencyN: 79,
		MeanActive: 1e21, MeanBlocked: -4.2225e-9, MeanQueued: 26.0725, MeanFlits: 5e-324, PeakActive: 18,
		Deadlocks: 5, SingleCycle: 4, MultiCycle: 1, SumDeadlockSet: 17, SumResourceSet: 40, SumKnotVCs: 33, SumKnotCycles: 9,
		SumDependent: 12, MaxDeadlockSet: 6, MaxResourceSet: 14, MaxKnotCycles: 3, CensusSamples: 8, SumCycles: 120, MaxCycles: 64,
		CensusCapped: true, Invocations: 8, GatedInvocations: 2, FaultEvents: 4, FaultsActiveEnd: 1, Killed: 6, Unroutable: 2}
	for i := int64(0); i < 79; i++ {
		res.Latency.Observe(34 + i*i%97)
		res.DetectBuildTime.Observe(300 + 120*i)
	}
	res.DetectAnalyzeTime.Observe(1 << 40)
	return res
}

// fastPathPayloads are encodings the one-pass parser must take itself: what
// earlier versions stored, what real runs produce over the whole seed range,
// and the corners of json.Marshal's own output.
func fastPathPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	store, err := os.ReadFile("../runner/testdata/parent_store/results.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.Split(bytes.TrimSpace(store), []byte("\n")) {
		var e struct{ Result json.RawMessage }
		if err := json.Unmarshal(line, &e); err != nil || len(e.Result) == 0 {
			tb.Fatalf("fixture line %s: %v", line, err)
		}
		out = append(out, e.Result)
	}

	// Seeds from PointSeed use all 64 bits, so about half print with twenty
	// digits, one more than any int64.
	twenty := 0
	for i := 0; i < 64; i++ {
		c := sim.Default()
		c.K, c.WarmupCycles, c.MeasureCycles, c.CycleCensus = 4, 40, 160, i%4 == 0
		c.Routing = []string{"dor", "tfar"}[i%2]
		c.Load = float64(5+15*(i%8)) / 100
		c.Seed = specv1.PointSeed(1997, i)
		if c.Seed >= 1e19 {
			twenty++
		}
		res, err := sim.Run(c)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, mustMarshal(tb, res))
	}
	if twenty == 0 {
		tb.Fatal("no PointSeed-derived seed has twenty digits")
	}

	zero, round := &stats.Result{}, handResult()
	round.Seed, round.Load, round.Label = 1e19, -1.0/3, ""
	return append(out, mustMarshal(tb, zero), mustMarshal(tb, handResult()), mustMarshal(tb, round))
}

// TestDecodeResultTakesFastPath: correct is not enough — an encoding that
// json.Marshal produces and the parser refuses is served four times slower
// by the fallback, and nothing else would say so.
func TestDecodeResultTakesFastPath(t *testing.T) {
	for _, p := range fastPathPayloads(t) {
		var fast, want, got stats.Result
		if !stats.ParseResult(p, &fast) {
			t.Errorf("the fast path refuses %s", p)
			continue
		}
		if err := json.Unmarshal(p, &want); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := stats.DecodeResult(p, &got); err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(fast, want) {
			t.Errorf("%s:\n fast path      %+v\n DecodeResult   %+v, %v\n json.Unmarshal %+v", p, fast, got, err, want)
		}
		if again := mustMarshal(t, &got); !bytes.Equal(again, p) { // DeepEqual cannot tell -0 from 0
			t.Errorf("re-encode drifted:\n stored %s\n again  %s", p, again)
		}
	}
}

// offPathPayloads are one mutation of a canonical encoding per way of
// leaving the fast path's grammar; each is encoding/json's to accept or refuse.
func offPathPayloads(tb testing.TB) [][]byte {
	res := handResult()
	res.Label, res.Load, res.Cycles, res.Seed = "dor1", 0.05, 400, 7
	base := string(mustMarshal(tb, res))
	mut := func(old, new string) string {
		tb.Helper()
		if strings.Count(base, old) != 1 {
			tb.Fatalf("%q is not in the base encoding exactly once: %s", old, base)
		}
		return strings.Replace(base, old, new, 1)
	}
	out := [][]byte{
		[]byte(mut(`"Load":0.05,"Cycles":400,`, `"Cycles":400,"Load":0.05,`)), // swapped
		[]byte(mut(`"Cycles":400,`, ``)),                                      // dropped
		[]byte(mut(`"Cycles":400,`, `"Cycles":400,"Cycles":401,`)),            // duplicated
		[]byte(mut(`"Cycles":400,`, `"Cycles":400,"Extra":{"a":[1,"}"]},`)),   // unknown
		[]byte(mut(`"Cycles":400,`, `"cycles":400,`)),                         // matched case-insensitively
		[]byte(" " + base), []byte(base + "\n"), []byte(mut(`"Cycles":400`, `"Cycles": 400`)), []byte(mut(`,"Unroutable"`, "\t,\"Unroutable\"")),
		[]byte(mut(`"Label":"dor1"`, `"Label":"\u0041dor1"`)), []byte(mut(`"Label":"dor1"`, `"Label":"a\u003cb"`)),
		[]byte(mut(`"Label":"dor1"`, `"Label":"a<b"`)), []byte(mut(`"Label":"dor1"`, `"Label":"naïve"`)),
		[]byte(mut(`"Label":"dor1"`, "\"Label\":\"bad\xff\"")), []byte(mut(`"Label":"dor1"`, "\"Label\":\"tab\t\"")),
		[]byte(mut(`"Label":"dor1"`, `"Label":"quo\"te"`)), []byte(mut(`"Label":"dor1"`, `"Label":7`)),
		[]byte(mut(`"Cycles":400`, `"Cycles":null`)), []byte(mut(`"Label":"dor1"`, `"Label":null`)), []byte(`null`), []byte(`{}`),
		[]byte(mut(`"Load":0.05`, `"Load":1e400`)), []byte(mut(`"Load":0.05`, `"Load":-1E-400`)), []byte(mut(`"Load":0.05`, `"Load":"0.05"`)),
		[]byte(mut(`"Load":0.05`, `"Load":.5`)), []byte(mut(`"Load":0.05`, `"Load":+1`)), []byte(mut(`"Load":0.05`, `"Load":0x10`)),
		[]byte(mut(`"Load":0.05`, `"Load":Inf`)), []byte(mut(`"Load":0.05`, `"Load":NaN`)), []byte(mut(`"Load":0.05`, `"Load":01`)),
		[]byte(mut(`"Load":0.05`, `"Load":1.`)), []byte(mut(`"Load":0.05`, `"Load":1e`)), []byte(mut(`"Load":0.05`, `"Load":-`)), []byte(mut(`"Load":0.05`, `"Load":1_0`)),
		[]byte(mut(`"Seed":7`, `"Seed":-1`)), []byte(mut(`"Seed":7`, `"Seed":-0`)), []byte(mut(`"Seed":7`, `"Seed":18446744073709551616`)),
		[]byte(mut(`"Seed":7`, `"Seed":07`)), []byte(mut(`"Seed":7`, `"Seed":7.0`)), []byte(mut(`"Seed":7`, `"Seed":184467440737095516150`)),
		[]byte(mut(`"Cycles":400`, `"Cycles":123456789012345678901`)), []byte(mut(`"Cycles":400`, `"Cycles":9223372036854775808`)),
		[]byte(mut(`"Cycles":400`, `"Cycles":4e2`)), []byte(mut(`"Nodes":-16`, `"Nodes":-16.0`)), []byte(mut(`"Nodes":-16`, `"Nodes":--16`)),
		[]byte(mut(`"Saturated":true`, `"Saturated":True`)), []byte(mut(`"Saturated":true`, `"Saturated":1`)), []byte(mut(`"Saturated":true`, `"Saturated":tru`)),
		[]byte(mut(`"max":1099511627776}`, `"max":1099511627776;`)), []byte(mut(`"max":1099511627776}`, `"max":"1099511627776"}`)), // inside the last histogram
		[]byte(mut(`"Latency":{"counts":[`, `"Latency":{"counts":[[0],`)), []byte(mut(`"Latency":{`, `"Latency":{"x":{},`)),
		[]byte(base + "}"), []byte(base + "x"), []byte(base[:len(base)-1]), []byte(base[:len(base)-1] + ","),
	}
	for q := 1; q < 4; q++ {
		out = append(out, []byte(base[:len(base)*q/4]))
	}
	return out
}

// FuzzDecodeResult holds DecodeResult to encoding/json, its specification:
// on every input, into an empty Result and into a populated one (Unmarshal
// merges), both report the same error and leave the same value behind.
func FuzzDecodeResult(f *testing.F) {
	for _, p := range append(fastPathPayloads(f), offPathPayloads(f)...) {
		f.Add(p)
	}
	zero := string(mustMarshal(f, &stats.Result{}))
	for _, l := range stats.ZeroRunLists() {
		f.Add([]byte(strings.Replace(zero, `"Latency":{}`, `"Latency":{"counts":`+l+`,"total":1}`, 1)))
	}
	populated := *handResult() // shared by value: decoding replaces a histogram's buckets, never writes them
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, into := range []stats.Result{{}, populated} {
			got, want := into, into
			gotErr, wantErr := stats.DecodeResult(data, &got), json.Unmarshal(data, &want)
			if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%q: DecodeResult error %v, encoding/json error %v", data, gotErr, wantErr)
			}
			// The encodings too: DeepEqual cannot tell -0 from 0.
			if !reflect.DeepEqual(got, want) || (wantErr == nil && !bytes.Equal(mustMarshal(t, &got), mustMarshal(t, &want))) {
				t.Fatalf("%q:\n DecodeResult   %+v\n json.Unmarshal %+v", data, got, want)
			}
		}
	})
}
