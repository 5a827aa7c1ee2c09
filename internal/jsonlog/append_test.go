package jsonlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Payloads either side of every line AppendRaw draws: what it may copy, what
// encoding/json would rewrite, and what is not JSON at all.
var rawCases = []string{
	`{"a":1,"b":[0,0,5,12,0],"c":{"d":"e"},"f":true,"g":null,"h":false,"i":-0.5e+10,"j":""}`,
	`{}`, `[]`, `[[],{}]`, `0`, `-0`, `"s"`, `true`, `null`, `1E5`, `[0]`, `[0,1]`, `[10,2]`,
	`{ "a" : 1 }`, "{\"a\":1}\n", "\t[1, 2]", `{"a":"space inside stays"}`,
	`{"a":"<b>&"}`, `{"a":" "}`, "{\"a\":\"  \"}", "{\"a\":\"é€\"}", "{\"a\":\"\xe2\x82\xac\"}",
	`{"a":"q\"uo\\te\/\b\f\n\r\tÿ"}`, `{"a":"\x"}`, `{"a":"\u12g4"}`, `{"a":"\u123`, "{\"a\":\"raw\nnewline\"}", "{\"a\":\"bad\xffutf8\"}",
	``, ` `, `{`, `}`, `[1,]`, `[,1]`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{a:1}`, `{"a":1}}`, `{"a":1}{"b":2}`, `[1 2]`, `{"a":1]`, `[1}`,
	`01`, `-`, `1.`, `.5`, `1e`, `1e+`, `+1`, `--1`, `0x10`, `1.5.2`, `tru`, `truee`, `nul`, `fals`, `NaN`, `"unterminated`, `"a"b`,
	strings.Repeat("[", 64) + strings.Repeat("]", 64), strings.Repeat("[", 65) + strings.Repeat("]", 65),
	strings.Repeat(`{"a":`, 70) + "1" + strings.Repeat("}", 70), strings.Repeat("[", 10001),
}

var stringCases = []string{"", "plain", "k0123456789abcdef", "with space", `quo"te`, `back\slash`, "<tag>&", "tab\there", "nl\n", "del\x7f",
	"café", " ", "€", "bad\xff", "\x00", "~}{][:,"}

var floatCases = []float64{0, math.Copysign(0, -1), 0.05, 0.5, 1, -1, 0.1 + 0.2, 100, 123456789.125, 1e-6, 9.99e-7, 1e-7, -2.5e-8, 1.5e-9, 1e-10,
	1e20, 1e21, -1e21, 1.7e300, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)}

// checkAppend holds the three writers to encoding/json on one input each:
// same bytes, an error exactly when json.Marshal has one, dst never lost.
func checkAppend(t *testing.T, raw []byte, s string, f float64) {
	t.Helper()
	const dst = "dst:"
	want, werr := json.Marshal(json.RawMessage(raw))
	got, err := AppendRaw([]byte(dst), raw)
	if (err == nil) != (werr == nil) {
		t.Fatalf("AppendRaw(%q) error %v, json.Marshal %v", raw, err, werr)
	}
	if err == nil && string(got) != dst+string(want) {
		t.Fatalf("AppendRaw(%q) = %q, json.Marshal %q", raw, got[len(dst):], want)
	}
	if err != nil && (string(got) != dst || err.Error() != werr.Error()) {
		t.Fatalf("AppendRaw(%q) failed with %q, %v; want dst untouched and %v", raw, got, err, werr)
	}
	if verbatim(raw) && !bytes.Equal(want, raw) {
		t.Fatalf("verbatim accepted %q, which json.Marshal rewrites to %q", raw, want)
	}

	want, _ = json.Marshal(s)
	if got := AppendString([]byte(dst), s); string(got) != dst+string(want) {
		t.Fatalf("AppendString(%q) = %q, json.Marshal %q", s, got[len(dst):], want)
	}

	want, werr = json.Marshal(f)
	got, err = AppendFloat([]byte(dst), f)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("AppendFloat(%v) error %v, json.Marshal %v", f, err, werr)
	}
	if string(got) != dst+string(want) {
		t.Fatalf("AppendFloat(%v) = %q, json.Marshal %q", f, got[len(dst):], want)
	}
}

func TestAppendMatchesJSON(t *testing.T) {
	for _, raw := range rawCases {
		checkAppend(t, []byte(raw), "", 0)
	}
	checkAppend(t, nil, "", 0) // a nil RawMessage is null, an empty one an error
	for _, s := range stringCases {
		checkAppend(t, []byte(`0`), s, 0)
	}
	for _, f := range floatCases {
		checkAppend(t, []byte(`0`), "", f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkAppend(t, []byte(`0`), "", math.Float64frombits(rng.Uint64()))
	}
	// A real result — what the store holds — is copied, not deferred.
	if raw := storePayload(t); !verbatim(raw) {
		t.Fatalf("a stored result is not taken verbatim: %s", raw)
	}
}

// zeroRunLists are arrays either side of every edge of value's four-zero
// skip: each list of 1 to 13 elements that is all zeros or has one other
// element (7, 10 or -0) — so runs of every length, a run that ends the list
// and a run cut by a non-zero — and runs that leave the grammar.
func zeroRunLists() []string {
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

// TestZeroRunBoundaries: AppendRaw copies or refuses each list in
// zeroRunLists as json.Marshal does, alone and as a histogram member, and
// VerbatimLen ends an accepted list at its bracket whatever follows it.
func TestZeroRunBoundaries(t *testing.T) {
	if w := binary.LittleEndian.Uint64([]byte("0,0,0,0,")); w != zeroRun {
		t.Fatalf("zeroRun is %#x, the word \"0,0,0,0,\" is %#x", uint64(zeroRun), w)
	}
	for _, l := range zeroRunLists() {
		checkAppend(t, []byte(l), "", 0)
		checkAppend(t, []byte(`{"counts":`+l+`,"total":1}`), "", 0)
		if n := VerbatimLen([]byte(l)); n == len(l) {
			if m := VerbatimLen([]byte(l + ",0,0,0,0,0]")); m != n {
				t.Fatalf("VerbatimLen(%s) is %d alone, %d followed by more zeros", l, n, m)
			}
		}
	}
}

// FuzzAppendRaw: any bytes, any string, any float64 bit pattern through
// checkAppend. Mutating the seeds reaches every branch of verbatim.
func FuzzAppendRaw(f *testing.F) {
	for i, raw := range append(rawCases, zeroRunLists()...) {
		f.Add([]byte(raw), stringCases[i%len(stringCases)], math.Float64bits(floatCases[i%len(floatCases)]))
	}
	f.Fuzz(func(t *testing.T, raw []byte, s string, bits uint64) {
		checkAppend(t, raw, s, math.Float64frombits(bits))
	})
}

// storePayload is the result object of one line of the runner's fixture
// store: a real bench-shaped result.
func storePayload(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("../runner/testdata/parent_store/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Result json.RawMessage }
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &e); err != nil {
		t.Fatal(err)
	}
	return e.Result
}

// BenchmarkAppendRaw is the copy against the json.Marshal it replaces.
func BenchmarkAppendRaw(b *testing.B) {
	raw := storePayload(b)
	buf := make([]byte, 0, 2*len(raw))
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendRaw(buf[:0], raw)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = json.Marshal(json.RawMessage(raw))
		}
	})
}
