package jsonlog

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"
)

// The zoo holds a field of every kind and every tag rule encoding/json has,
// the plan's own and the ones it hands over.
type (
	named string
	inner struct {
		A int    `json:"a"`
		B string `json:"b,omitempty"`
	}
	embedded struct {
		inner
		C int
	}
	valMarshaler struct{ N int }
	ptrMarshaler struct{ N int }
	textual      int
	appender     struct{ N int64 }
	withString   struct {
		N int `json:"n,string"`
	}
	dup struct {
		A int `json:"B"`
		B int
	}
	spaced struct {
		A int `json:"a b"`
	}
	node struct {
		Next *node `json:"next,omitempty"`
		V    int
	}
)

func (v valMarshaler) MarshalJSON() ([]byte, error) {
	return []byte(" { \"n\" : " + strconv.Itoa(v.N) + ", \"s\":\"<&>\" } "), nil // for encoding/json to compact and escape
}
func (p *ptrMarshaler) MarshalJSON() ([]byte, error) { return []byte(`"ptr"`), nil }
func (t textual) MarshalText() ([]byte, error)       { return []byte("t<" + strconv.Itoa(int(t)) + ">"), nil }
func (a appender) AppendJSON(b []byte) ([]byte, error) {
	return append(strconv.AppendInt(append(b, `{"a":`...), a.N, 10), '}'), nil
}
func (a appender) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil) }

type zoo struct {
	Bool       bool
	I          int
	I8         int8
	I16        int16
	I32        int32
	I64        int64
	U          uint
	U8         uint8
	U16        uint16
	U32        uint32
	U64        uint64
	Uptr       uintptr
	F64        float64
	F32        float32
	S          string
	Named      named
	OB         bool           `json:"ob,omitempty"`
	OI         int            `json:"oi,omitempty"`
	OU         uint           `json:"ou,omitempty"`
	OF         float64        `json:"of,omitempty"`
	OS         string         `json:"os,omitempty"`
	OP         *int           `json:"op,omitempty"`
	OSl        []int          `json:"osl,omitempty"`
	OM         map[string]int `json:"om,omitempty"`
	OA         [0]int         `json:"oa,omitempty"`
	OIf        any            `json:"oif,omitempty"`
	OSt        inner          `json:"ost,omitempty"`
	P          *int
	PP         **string
	Sl         []int
	Sl64       []int64
	Bytes      []byte
	Arr        [2]int
	M          map[string]int
	If         any
	Raw        json.RawMessage
	ORaw       json.RawMessage `json:"oraw,omitempty"`
	In         inner
	PIn        *inner
	SIn        []inner
	SPIn       []*inner
	VM         valMarshaler
	PM         ptrMarshaler
	PPM        *ptrMarshaler
	TM         textual
	Ap         appender
	PAp        *appender
	SAp        []appender
	Emb        embedded
	WS         withString
	Dup        dup
	Spaced     spaced
	Node       *node
	Skip       int `json:"-"`
	Dash       int `json:"-,"`
	Renamed    int `json:"renamed_field"`
	unexported int
}

func fullZoo() *zoo {
	i, s := 7, "p<s>"
	ps := &s
	z := &zoo{Bool: true, I: -1, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I64: math.MinInt64,
		U: 1, U8: math.MaxUint8, U16: 2, U32: math.MaxUint32, U64: math.MaxUint64, Uptr: 9,
		F64: 1e-7, F32: 1.1, S: "quo\"te\n é", Named: "named",
		OB: true, OI: -3, OU: 4, OF: math.Copysign(0, -1), OS: "x", OP: &i, OSl: []int{1}, OM: map[string]int{"b": 1, "a": 2}, OIf: 0, OSt: inner{},
		P: &i, PP: &ps, Sl: []int{}, Sl64: []int64{0, 0, 5, -1, math.MaxInt64}, Bytes: []byte("bytes"), Arr: [2]int{1, 2},
		M: map[string]int{"z": 1, "<": 2}, If: map[string]any{"k": []any{1.5, "s", nil}},
		Raw: json.RawMessage(` {"a": [1, 2]} `), ORaw: json.RawMessage(`{}`),
		In: inner{1, "b"}, PIn: &inner{A: 2}, SIn: []inner{{3, ""}}, SPIn: []*inner{nil, {4, "c"}},
		VM: valMarshaler{5}, PM: ptrMarshaler{6}, PPM: &ptrMarshaler{}, TM: 8, Ap: appender{9}, PAp: &appender{10}, SAp: []appender{{11}},
		Emb: embedded{inner{12, "d"}, 13}, WS: withString{14}, Dup: dup{15, 16}, Spaced: spaced{17},
		Node: &node{Next: &node{V: 2}, V: 1}, Skip: 18, Dash: 19, Renamed: 20, unexported: 21}
	return z
}

// checkAppendValue holds Append to json.Marshal on v: the same bytes, an
// error exactly when json.Marshal has one, and dst untouched then.
func checkAppendValue(t *testing.T, v any) {
	t.Helper()
	const dst = "dst:"
	want, werr := json.Marshal(v)
	got, err := Append([]byte(dst), v)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Append(%#v) error %v, json.Marshal %v", v, err, werr)
	}
	if err == nil && string(got) != dst+string(want) {
		t.Fatalf("Append(%#v)\n = %s\n json.Marshal %s", v, got[len(dst):], want)
	}
	if err != nil && string(got) != dst {
		t.Fatalf("Append(%#v) failed with %q appended", v, got[len(dst):])
	}
}

// TestAppendMatchesMarshal: every zoo field zero and set, through a pointer
// (addressable: a pointer method applies) and by value (it does not), and
// the values json.Marshal refuses.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, z := range []*zoo{{}, fullZoo()} {
		checkAppendValue(t, z)
		checkAppendValue(t, *z)
		checkAppendValue(t, []*zoo{z, nil})
		checkAppendValue(t, &z.In)
	}
	for _, v := range []any{nil, 0, "s", named("<"), 1.5, float32(1.5), true, []int(nil), []int64(nil), []int64{}, (*zoo)(nil),
		json.RawMessage(nil), json.RawMessage(`[1, 2]`), map[int]string{2: "b", 1: "a"}, appender{1}, &appender{2}, (*appender)(nil),
		textual(3), &node{V: 1}, struct{}{}, struct{ a int }{1}, [3]int{}, []appender{{1}}, struct{ N *node }{&node{V: 1}}} {
		checkAppendValue(t, v)
	}
	nan, inf := math.NaN(), math.Inf(-1)
	for _, v := range []any{nan, &zoo{F64: inf}, &zoo{F32: float32(inf)}, &zoo{Raw: json.RawMessage{}}, &zoo{ORaw: json.RawMessage(`{`)},
		&zoo{Sl64: nil, SPIn: []*inner{nil}, If: make(chan int)}, struct{ F func() }{}, map[string]any{"c": complex(1, 2)},
		struct{ E fails }{}} {
		checkAppendValue(t, v)
	}
	cyclic := &node{V: 1}
	cyclic.Next = cyclic
	checkAppendValue(t, cyclic)
}

type fails struct{}

func (fails) MarshalJSON() ([]byte, error) { return nil, errors.New("fails") }

// TestZooTakesPlan: the plan's own kinds do not go to encoding/json; the
// rest of the zoo does, once per value.
func TestZooTakesPlan(t *testing.T) {
	planned := struct {
		A   int64
		B   *inner
		C   []appender
		D   json.RawMessage `json:"d,omitempty"`
		E   []int64
		F   named
		Raw json.RawMessage
	}{1, &inner{2, "x"}, []appender{{3}}, nil, []int64{4}, "f", json.RawMessage(`{"r":[0,0,0,0,0]}`)}
	before := handedOver.Load()
	if _, err := Append(nil, &planned); err != nil {
		t.Fatal(err)
	}
	if n := handedOver.Load() - before; n != 0 {
		t.Errorf("a planned struct handed %d values to encoding/json", n)
	}
	before = handedOver.Load()
	Append(nil, fullZoo())
	// F32, OM, OIf, Bytes, Arr, M, If, VM, PM, PPM's pointee, TM, Emb, WS,
	// Dup, Spaced, and Node's Next (a type met inside itself); OA is empty.
	if n := handedOver.Load() - before; n != 16 {
		t.Errorf("the full zoo handed %d values to encoding/json, want 16", n)
	}
}

// FuzzAppend sets the zoo from any JSON document encoding/json will read
// into it, then overwrites a string, a float, an integer and a payload with
// the fuzzer's own, and holds Append to json.Marshal on the result.
func FuzzAppend(f *testing.F) {
	full, _ := json.Marshal(fullZoo())
	for i, s := range []string{string(full), `{}`, `{"Sl64":[0,0,0,0,0,1],"Node":{"next":{"V":3}}}`, `{"If":{"a":[1,{"b":null}]},"M":{"é":1}}`,
		`{"Raw":{"a":"<>"},"PIn":null,"SPIn":[null,{"a":1}],"Bytes":"Ynl0ZXM="}`, `{"OSt":{},"ost":{"a":1},"renamed_field":2,"-":3}`} {
		f.Add([]byte(s), stringCases[i%len(stringCases)], math.Float64bits(floatCases[i%len(floatCases)]), int64(i-3))
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, bits uint64, n int64) {
		var z zoo
		json.Unmarshal(data, &z) // whatever it fills in is a value to encode
		z.S, z.OS, z.Named, z.F64, z.OF, z.I64, z.Sl64 = s, s, named(s), math.Float64frombits(bits), math.Float64frombits(^bits), n, append(z.Sl64, n)
		if bits&1 == 1 {
			z.Raw = data
		}
		checkAppendValue(t, &z)
		checkAppendValue(t, z)
	})
}
