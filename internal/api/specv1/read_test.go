package specv1

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/jsonlog"
	"flexsim/internal/sim"
)

// strictJSON is the specification of decodeStrict, written without it:
// encoding/json with unknown fields disallowed, then the end of input.
func strictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// specified is a single-value decoder as the package comment defines it:
// strictJSON, the decoder's error prefix, then its version check.
func specified[T any](what string, check func(*T) error) func([]byte) (any, error) {
	return func(data []byte) (any, error) {
		v := new(T)
		if err := strictJSON(data, v); err != nil {
			return nil, fmt.Errorf("specv1: %s: %w", what, err)
		}
		if err := check(v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

func versioned(what string, got int) error {
	if got != Version {
		return fmt.Errorf("specv1: %sschema_version %d, want %d", what, got, Version)
	}
	return nil
}

// specifiedResults is ReadResults over one encoding/json decoder.
func specifiedResults(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out []PointResult
	for {
		var pr PointResult
		if err := dec.Decode(&pr); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("specv1: read results: after %d results: %w", len(out), err)
		}
		if err := versioned("result ", pr.SchemaVersion); err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
}

// wireDecoders are the package's strict decoders, each with its
// specification and the message type the reader must take for it.
var wireDecoders = []struct {
	name      string
	decode    func([]byte) (any, error)
	specified func([]byte) (any, error)
	message   func() any
}{
	{"spec", func(d []byte) (any, error) { return DecodeSpec(bytes.NewReader(d)) },
		specified("spec", (*Spec).Validate), func() any { return new(Spec) }},
	{"run request", func(d []byte) (any, error) { return DecodeRunRequest(bytes.NewReader(d)) },
		specified("run request", func(v *RunRequest) error { return versioned("run request ", v.SchemaVersion) }), func() any { return new(RunRequest) }},
	{"run response", func(d []byte) (any, error) { return DecodeRunResponse(bytes.NewReader(d)) },
		specified("run response", func(v *RunResponse) error { return versioned("run response ", v.SchemaVersion) }), func() any { return new(RunResponse) }},
	{"event", func(d []byte) (any, error) { return DecodeEvent(d) },
		specified("event", func(*Event) error { return nil }), func() any { return new(Event) }},
	{"results", func(d []byte) (any, error) { return ReadResults(bytes.NewReader(d)) },
		specifiedResults, func() any { return new(PointResult) }},
	{"sweep status", func(d []byte) (any, error) { return DecodeStatus(bytes.NewReader(d)) },
		specified("sweep status", func(v *SweepStatus) error { return versioned("sweep status ", v.SchemaVersion) }), func() any { return new(SweepStatus) }},
	{"sweep list", func(d []byte) (any, error) { return DecodeList(bytes.NewReader(d)) },
		specified("sweep list", func(v *SweepList) error {
			err := versioned("sweep list ", v.SchemaVersion)
			for i := 0; i < len(v.Sweeps) && err == nil; i++ {
				err = versioned("sweep status ", v.Sweeps[i].SchemaVersion)
			}
			return err
		}), func() any { return new(SweepList) }},
}

// Indexes into wireDecoders.
const (
	wireSpec = iota
	wireRequest
	wireResponse
	wireEvent
	wireResults
	wireStatus
	wireList
)

type wireDoc struct {
	decoder int
	data    []byte
}

// sweepSpec is an explicit spec shaped like the benchmark's warm re-sweep:
// n tiny points, two algorithms, nineteen loads, PointSeed-derived seeds over
// the whole 64-bit range.
func sweepSpec(n int) *Spec {
	s := &Spec{SchemaVersion: Version, Name: "sweep"}
	for i := 0; i < n; i++ {
		c := sim.Default()
		c.K, c.WarmupCycles, c.MeasureCycles = 4, 100, 400
		c.Routing = []string{"dor", "tfar"}[i%2]
		c.Load = float64(5+5*(i%19)) / 100
		c.Seed = PointSeed(1997, i)
		s.Points = append(s.Points, FromSim(c))
	}
	return s
}

func encodedSpec(tb testing.TB, s *Spec) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writerOutputs is one output of every writer of the wire, in the reader's
// grammar by construction: what TestWireTakesFastPath holds it to. (Every
// writer is jsonlog.Append, json.Marshal byte for byte: FuzzAppend and
// TestWriterTakesPlan in that package.)
func writerOutputs(tb testing.TB) []wireDoc {
	tb.Helper()
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	loadSweep := testSpec()
	loadSweep.Base.FaultEvents = nil // a fault.Event decodes itself: encoding/json's, see offGrammar
	explicit := sweepSpec(64)
	twenty := 0
	for _, p := range explicit.Points {
		if p.Seed >= 1e19 {
			twenty++
		}
	}
	if twenty == 0 {
		tb.Fatal("no PointSeed-derived seed has twenty digits")
	}
	full := sweepSpec(1)
	full.Points[0].Mesh, full.Points[0].Workload, full.Points[0].ShortFrac, full.Points[0].Label = true, "stencil", 0.25, "DOR1 uni (k=8, n=2) #7's"
	full.Points[0].FaultSeed, full.Points[0].TimeoutThresholds = 1<<64-1, []int64{-1 << 63, 0, 1<<63 - 1}
	full.Points[0].Load, full.Points[0].HotspotFrac, full.Points[0].MaxWork = 1e-7, 1e21, -1<<63

	raw, err := EncodeResult(benchResult())
	if err != nil {
		tb.Fatal(err)
	}
	tp := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	key := "fd0d070ddc9de7102ca9716e3ee489526aec387bafdea097bd9e81bd56b89523"
	results := []PointResult{
		{SchemaVersion: Version, Index: 0, Load: 0.05, Status: StatusDone, Key: key, Worker: "127.0.0.1:8611", Attempts: 2, Trace: tp, Result: raw},
		{SchemaVersion: Version, Index: 1, Load: 0.35, Status: StatusCached, Key: key, Result: raw},
		{SchemaVersion: Version, Index: 2, Load: 1, Status: StatusFailed, Error: "panic: index out of range [5] with length 5"},
	}
	var jsonl bytes.Buffer
	if err := WriteResults(&jsonl, results); err != nil {
		tb.Fatal(err)
	}
	point := results[0]
	point.Result = nil
	retrying := PointResult{SchemaVersion: Version, Index: 3, Load: 0.5, Status: StatusRetrying, Worker: "w2", Attempts: 1}
	status := &SweepStatus{SchemaVersion: Version, ID: "s1", Name: "fig5", State: SweepRunning, Total: 12, Done: 3, Cached: 4, Failed: 1, Running: 2, Pending: 2, Stolen: 1}
	done := *status
	done.State = SweepDone

	golden, err := os.ReadFile("testdata/spec_v1.json")
	if err != nil {
		tb.Fatal(err)
	}
	noFaults := bytes.Replace(golden, golden[bytes.Index(golden, []byte(`"fault_events"`)):bytes.Index(golden, []byte(`"detect_every"`))], nil, 1)

	return []wireDoc{
		{wireSpec, noFaults}, {wireSpec, encodedSpec(tb, loadSweep)}, {wireSpec, encodedSpec(tb, explicit)}, {wireSpec, encodedSpec(tb, full)}, {wireSpec, marshal(explicit)},
		{wireSpec, []byte(" {\"schema_version\":1,\r\n\t\"loads\" : [ 0.5 , 1E0,-0.0e+0 ] , \"base\":{ } , \"points\":[ ]}\n\n")},
		{wireRequest, append(marshal(&RunRequest{SchemaVersion: Version, Config: FromSim(sim.Quick()), TimeoutMS: 500, Trace: tp}), '\n')},
		{wireRequest, marshal(&RunRequest{SchemaVersion: Version, Config: full.Points[0]})},
		{wireResponse, append(marshal(&RunResponse{SchemaVersion: Version, Status: StatusDone, Worker: "w1", Persisted: true, Trace: tp, Result: raw}), '\n')},
		{wireResponse, marshal(&RunResponse{SchemaVersion: Version, Status: StatusFailed, Error: "no such routing"})},
		{wireEvent, marshal(&Event{Type: "point", Sweep: "s1", Point: &point})},
		{wireEvent, marshal(&Event{Type: "retry", Sweep: "s1", Point: &retrying, Cause: "worker-death", Trace: tp})},
		{wireEvent, marshal(&Event{Type: "steal", Sweep: "s1", Point: &retrying, Cause: "w1"})},
		{wireEvent, marshal(&Event{Type: "progress", Sweep: "s1", Stat: status})},
		{wireEvent, marshal(&Event{Type: "done", Sweep: "s1", Stat: &done})},
		{wireResults, jsonl.Bytes()}, {wireResults, nil}, {wireResults, marshal(&results[1])},
		{wireStatus, append(marshal(status), '\n')},
		{wireList, append(marshal(&SweepList{SchemaVersion: Version, Sweeps: []SweepStatus{*status, done}}), '\n')},
		{wireList, marshal(&SweepList{SchemaVersion: Version, Sweeps: []SweepStatus{}})},
	}
}

// handedOver counts the member values read gives to encoding/json.
var handedOver atomic.Int64

// read is the reader alone, as the decoders call it: the index after the
// value data starts with, or -1.
func read(data []byte, v any) int {
	return jsonlog.Read(data, v, func(data []byte, v any) (int, error) {
		handedOver.Add(1)
		return jsonValue(data, v)
	})
}

// TestWireTakesFastPath: correct is not enough — a document every writer
// produces and the reader refuses is decoded five times slower by the
// fallback, and nothing else would say so. Each output of each writer must be
// read by the reader itself, whole and with no member handed over, into what
// encoding/json makes of it.
func TestWireTakesFastPath(t *testing.T) {
	before := handedOver.Load()
	for _, doc := range writerOutputs(t) {
		d := wireDecoders[doc.decoder]
		for rest := doc.data; len(bytes.TrimSpace(rest)) > 0; {
			fast, want := d.message(), d.message()
			n := read(rest, fast)
			if n < 0 {
				t.Errorf("%s: the reader refuses %s", d.name, rest)
				break
			}
			dec := json.NewDecoder(bytes.NewReader(rest))
			if err := dec.Decode(want); err != nil || int64(n) != dec.InputOffset() || !reflect.DeepEqual(fast, want) {
				t.Errorf("%s: %s\n reader        %+v, %d bytes\n encoding/json %+v, %d bytes, %v", d.name, rest, fast, n, want, dec.InputOffset(), err)
			}
			rest = rest[n:]
		}
		got, err := d.decode(doc.data)
		want, werr := d.specified(doc.data)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s\n decoded   %+v, %v\n specified %+v, %v", d.name, doc.data, got, err, want, werr)
		}
	}
	if n := handedOver.Load() - before; n != 0 {
		t.Errorf("the reader handed %d members of the writers' output to encoding/json, want none", n)
	}
}

// offGrammar is one departure from the reader's grammar per class, and the
// ends of input strictness is about; each is encoding/json's to accept or
// refuse, with its value and its words.
func offGrammar(tb testing.TB) []wireDoc {
	tb.Helper()
	golden, err := os.ReadFile("testdata/spec_v1.json") // carries a fault event
	if err != nil {
		tb.Fatal(err)
	}
	out := []wireDoc{{wireSpec, golden}}
	spec := `{"schema_version":1,"name":"m","base":{"k":4,"n":2,"load":0.5,"seed":7,"routing":"dor","recover":true},"loads":[0.25,0.5]}`
	for _, m := range [][2]string{
		{`"name":"m"`, `"name":"m","bogus":3`}, {`"k":4`, `"k":4,"warp":{"a":[1,"}"]}`}, {`"k":4`, `"K":4`}, {`"name":"m"`, `"Name":"m"`},
		{`"k":4`, `"k":4,"k":5`}, {`"loads":[0.25,0.5]`, `"loads":[0.25,0.5],"loads":[1]`}, {`"loads":[0.25,0.5]`, `"loads":[0.25,0.5],"base":{"n":3}`},
		{`"name":"m"`, `"name":"\u006d"`}, {`"name":"m"`, `"name":"a\"b"`}, {`"name"`, `"n\u0061me"`}, {`"name":"m"`, `"name":"naïve"`}, {`"name":"m"`, "\"name\":\"bad\xff\""},
		{`"name":"m"`, "\"name\":\"tab\t\""}, {`"name":"m"`, `"name":"a<b"`}, {`"name":"m"`, `"name":7`}, {`"name":"m"`, `"name":null`}, {`"k":4`, `"k":null`},
		{`"recover":true`, `"recover":null`}, {`"loads":[0.25,0.5]`, `"loads":null`}, {`"loads":[0.25,0.5]`, `"loads":[0.25,null]`}, {`"base":{`, `"base":null,"x":{`},
		{`"k":4`, `"k":4e0`}, {`"k":4`, `"k":1e3`}, {`"k":4`, `"k":4.0`}, {`"k":4`, `"k":-0`}, {`"k":4`, `"k":04`}, {`"k":4`, `"k":9223372036854775808`}, {`"k":4`, `"k":"4"`},
		{`"k":4`, `"k":--4`}, {`"k":4`, `"k":+4`}, {`"k":4`, `"k":true`}, {`"seed":7`, `"seed":-1`}, {`"seed":7`, `"seed":18446744073709551616`}, {`"seed":7`, `"seed":7.5`},
		{`"load":0.5`, `"load":1e400`}, {`"load":0.5`, `"load":.5`}, {`"load":0.5`, `"load":1.`}, {`"load":0.5`, `"load":0x10`}, {`"load":0.5`, `"load":NaN`}, {`"load":0.5`, `"load":"0.5"`},
		{`"load":0.5`, `"load":-`}, {`"load":0.5`, `"load":1e`}, {`"load":0.5`, `"load":01`}, {`"load":0.5`, `"load":[0.5]`},
		{`"recover":true`, `"recover":True`}, {`"recover":true`, `"recover":tru`}, {`"recover":true`, `"recover":truex`}, {`"recover":true`, `"recover":1`}, {`"recover":true`, `"recover":"true"`},
		{`"k":4`, `"k":4,"fault_events":[]`}, {`"k":4`, `"k":4,"fault_events":[{"cycle":1,"kind":"link-down"}]`}, {`"k":4`, `"k":4,"fault_events":[{"cycle":1,"kind":"no-such"}]`},
		{`"k":4`, `"k":4,"timeout_thresholds":[]`}, {`"k":4`, `"k":4,"timeout_thresholds":[16,6.4]`}, {`"k":4`, `"k":4,"timeout_thresholds":{"a":1}`},
		{`"loads":[0.25,0.5]`, `"loads":[0.25,0.5,]`}, {`"loads":[0.25,0.5]`, `"loads":[,0.25]`}, {`"loads":[0.25,0.5]`, `"loads":[0.25 0.5]`}, {`"loads":[0.25,0.5]`, `"loads":[0.25,0.5}`},
		{`"loads":[0.25,0.5]`, `"loads":[0.25,0.5]]`}, {`"loads":[0.25,0.5]`, `"loads":0.25`}, {`"loads":[0.25,0.5]`, `"loads":[[0.25]]`}, {`"seed":7,`, `"seed":7,,`}, {`"seed":7,`, `"seed":7`},
		{`"seed":7,`, `"seed":7;`}, {`"seed":7`, `"seed"7`}, {`"seed":7`, `"seed";7`}, {`"seed":7`, `"seed"="7"`}, {`"seed":7`, "\"seed\":\f7"}, {`"seed":7,`, "\"seed\":7\v,"}, {`"seed":7,`, "\"seed\":7,\u00a0"}, {`"seed":7`, `"seed"::7`}, {`"seed":7`, `seed:7`}, {`"recover":true}`, `"recover":true,}`}, {`"recover":true}`, `"recover":true]`},
		{`{"schema_version":1`, `[{"schema_version":1`}, {`{"schema_version":1`, `{"schema_version":2`}, {`"schema_version":1,`, ``}, {`"loads":[0.25,0.5]`, `"loads":[]`}, {`,"loads":[0.25,0.5]`, ``},
		{`"loads":[0.25,0.5]`, `"loads":[0.25,0.5],"points":[{"k":4}]`}, {`"base":{`, `"points":[{`},
	} {
		if strings.Count(spec, m[0]) != 1 {
			tb.Fatalf("%q is not in the base spec exactly once", m[0])
		}
		out = append(out, wireDoc{wireSpec, []byte(strings.Replace(spec, m[0], m[1], 1))})
	}
	response := `{"schema_version":1,"status":"done","persisted":true,"result":{"Label":"x","Latency":{"counts":[0,1]}}}`
	event := `{"type":"progress","sweep":"s1","status":{"schema_version":1,"id":"s1","state":"running","points_total":2,"points_done":0,"points_cached":0,"points_failed":0,"points_cancelled":0,"points_running":1,"points_pending":1}}`
	line := `{"schema_version":1,"index":0,"load":0.5,"status":"done","key":"k","attempts":1,"result":{"Delivered":1}}`
	for _, m := range [][2]string{ // a payload the verbatim scan does not delimit, a map, and a stream's ways to go wrong
		{response, strings.Replace(response, `"counts":[0,1]`, `"counts": [0,1]`, 1)}, {response, strings.Replace(response, `"Label":"x"`, `"Label":"\u0078"`, 1)},
		{response, strings.Replace(response, `"Label":"x"`, `"Label":"<x>"`, 1)}, {response, strings.Replace(response, `{"Label":"x","Latency":{"counts":[0,1]}}`, `null`, 1)},
		{response, strings.Replace(response, `{"Label":"x","Latency":{"counts":[0,1]}}`, `[1,{"a":tru}]`, 1)}, {response, strings.Replace(response, `"counts":[0,1]}}}`, `"counts":[0,1]}}`, 1)},
		{response, strings.Replace(response, `{"Label":"x","Latency":{"counts":[0,1]}}`, strings.Repeat("[", 70)+strings.Repeat("]", 70), 1)},
		{response, strings.Replace(response, `"persisted":true`, `"persisted":false`, 1)}, {response, ``}, {response, ` `}, {response, `{}`}, {response, `null`}, {response, `[]`}, {response, `"x"`},
		{event, strings.Replace(event, `"points_pending":1`, `"points_pending":1,"retries":2,"retry_causes":{"5xx":2}`, 1)}, {event, strings.Replace(event, `"points_pending":1`, `"points_pending":1,"retry_causes":{}`, 1)},
		{event, strings.Replace(event, `"status":{`, `"point":null,"status":{`, 1)}, {event, strings.Replace(event, `"status":{`, `"point":{},"status":{`, 1)}, {event, strings.Replace(event, `"sweep":"s1",`, ``, 1)},
	} {
		d := wireResponse
		if m[0] == event {
			d = wireEvent
		}
		out = append(out, wireDoc{d, []byte(m[1])})
	}
	for _, stream := range []string{
		line + "\n}\n" + line + "\n", line + "\n]\n" + line + "\n", line + "\n" + line + "\n}", line + "\n" + line + "\n]\n", line + "\n" + line[:24], line + line, line + "," + line, "[" + line + "]",
		line + "\nnull\n" + line, line + "\n\n\r\n" + line + " \t", strings.Replace(line, `"schema_version":1`, `"schema_version":7`, 1), line + "\n" + strings.Replace(line, `"index":0`, `"index":"0"`, 1),
		line + "\n" + strings.Replace(line, `"key":"k"`, `"key":"k","zap":1`, 1), line + "\n" + strings.Replace(line, `{"Delivered":1}`, `{"Delivered": 1}`, 1) + "\n" + line + "\n", "}", "x",
	} {
		out = append(out, wireDoc{wireResults, []byte(stream)})
	}
	for d, docs := range complete {
		for _, doc := range docs {
			for _, tail := range trailing {
				out = append(out, wireDoc{d, []byte(doc + tail)})
			}
			for end := range doc { // torn anywhere
				out = append(out, wireDoc{d, []byte(doc[:end])})
			}
			out = append(out, wireDoc{d, []byte(doc + " \n\t\r")}, wireDoc{d, []byte("\n " + doc)})
		}
	}
	return out
}

// complete is, for every single-value decoder, a document the reader takes
// alone, one it takes with a member handed to encoding/json, and one it leaves
// to encoding/json whole; trailing is what strictness refuses after each.
var (
	complete = map[int][3]string{
		wireSpec:     {`{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]}`, `{"schema_version":1,"name":"\u006d","base":{"k":4,"n":2},"loads":[0.5]}`, `{"schema_version":1,"Base":{"k":4,"n":2},"loads":[0.5]}`},
		wireRequest:  {`{"schema_version":1,"config":{"k":4}}`, `{"schema_version":1,"config":{"label":"\u0078"}}`, `{"schema_version":1,"c\u006fnfig":{"k":4}}`},
		wireResponse: {`{"schema_version":1,"status":"done","result":{}}`, `{"schema_version":1,"status":"done","result":{ }}`, `{"schema_version":1,"status":"done","status":"done","result":{}}`},
		wireEvent:    {`{"type":"point","sweep":"s1"}`, `{"type":"point","sweep":"\u00731"}`, `{"type":"point","Sweep":"s1"}`},
		wireStatus:   {`{"schema_version":1,"id":"s1","state":"done"}`, `{"schema_version":1,"id":"s1","state":"done","retry_causes":{"5xx":1}}`, `{"schema_version":1,"id":"s1","st\u0061te":"done"}`},
		wireList:     {`{"schema_version":1,"sweeps":[]}`, `{"schema_version":1,"sweeps":null}`, `{"schema_version":1,"SWEEPS":[]}`},
	}
	trailing = []string{"}", "]", " ] junk", "x", "null", " null", `{"x":1}`, " {}", "\n[]", "1", ",", `"`, "\x00", "\f", "\u00a0"}
)

// checkWire holds one decoder to its specification on one input: the same
// accept or reject, the same value, the same error text.
func checkWire(t *testing.T, decoder int, data []byte) {
	t.Helper()
	d := wireDecoders[decoder]
	got, err := d.decode(data)
	want, werr := d.specified(data)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s %q:\n error     %v\n specified %v", d.name, data, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q:\n decoded   %+v\n specified %+v", d.name, data, got, want)
	}
}

// TestWireDecodeMatchesSpecification runs FuzzWireDecode's corpus through
// every decoder, not only the one each document was written for.
func TestWireDecodeMatchesSpecification(t *testing.T) {
	for _, doc := range append(writerOutputs(t), offGrammar(t)...) {
		for d := range wireDecoders {
			checkWire(t, d, doc.data)
		}
	}
}

// TestStrictMeansToTheEnd: a complete value followed by anything but
// whitespace is refused by all the single-value decoders, whether the reader,
// the reader with encoding/json's help, or encoding/json took the value; and
// ReadResults never returns a shorter slice for a stream with something else
// in it.
func TestStrictMeansToTheEnd(t *testing.T) {
	for d, docs := range complete {
		for path, doc := range docs {
			before := handedOver.Load()
			if taken, handed := read([]byte(doc), wireDecoders[d].message()) >= 0, handedOver.Load()-before; taken != (path < 2) || handed != int64(path%2) {
				t.Fatalf("%s: reader took %s: %v, with %d members handed over", wireDecoders[d].name, doc, taken, handed)
			}
			if _, err := wireDecoders[d].decode([]byte(doc + "\n \t\r\n")); err != nil {
				t.Errorf("%s: %s then whitespace: %v", wireDecoders[d].name, doc, err)
			}
			for _, tail := range trailing {
				if _, err := wireDecoders[d].decode([]byte(doc + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
					t.Errorf("%s: %s then %q: err = %v, want trailing data refused", wireDecoders[d].name, doc, tail, err)
				}
			}
		}
	}

	line := `{"schema_version":1,"index":0,"load":0.5,"status":"done","result":{"Delivered":1}}`
	slow := strings.Replace(line, `"done"`, `"d\u006fne"`, 1)
	for _, l := range []string{line, slow} {
		three := l + "\n" + line + "\n" + l + "\n"
		if out, err := ReadResults(strings.NewReader(three)); err != nil || len(out) != 3 {
			t.Fatalf("ReadResults = %d results, %v; want 3", len(out), err)
		}
		for name, stream := range map[string]string{
			"} mid-stream": l + "\n}\n" + line + "\n" + l + "\n", "] mid-stream": l + "\n" + line + "\n]\n" + l + "\n",
			"} at the end": three + "}", "] at the end": three + "]\n", "torn last line": three + `{"schema_version":1,"ind`, "null line": l + "\nnull\n" + line,
		} {
			out, err := ReadResults(strings.NewReader(stream))
			if err == nil || out != nil {
				t.Errorf("%s: ReadResults = %d results, %v; want an error and no results", name, len(out), err)
			}
		}
	}
	if _, err := ReadResults(strings.NewReader(line + "\n" + line + "\n]\n")); err == nil || !strings.Contains(err.Error(), "after 2 results") {
		t.Errorf("stray delimiter: err = %v, want it placed after 2 results", err)
	}
}

// FuzzWireDecode holds every strict decoder to its specification on
// arbitrary bytes. Mutating the corpus — every writer's output and one
// departure per class — walks the reader's every way out.
func FuzzWireDecode(f *testing.F) {
	for _, doc := range append(writerOutputs(f), offGrammar(f)...) {
		f.Add(doc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for d := range wireDecoders {
			checkWire(t, d, data)
		}
	})
}

var specSink *Spec

// BenchmarkDecodeSpec is what every run, re-run and submission starts with,
// a 2 000-point indented spec: through the reader alone; with an escaped label
// in its last point, or a fault event in every point, handed to encoding/json
// member by member; and with a member name of its last point that only
// encoding/json matches — the fallback at its worst, the reader's pass wasted
// before encoding/json's begins.
func BenchmarkDecodeSpec(b *testing.B) {
	s := sweepSpec(2000)
	fast := encodedSpec(b, s)
	s.Points[len(s.Points)-1].Label = "a<b"
	label := encodedSpec(b, s)
	for i := range s.Points {
		s.Points[i].FaultEvents = []fault.Event{{Cycle: 100, Kind: fault.LinkDown, Ch: 3}}
	}
	slow := bytes.Clone(fast)
	slow[bytes.LastIndex(slow, []byte(`"k"`))+1] = 'K'
	for _, path := range []struct {
		name string
		data []byte
	}{{"fast", fast}, {"escaped-label", label}, {"fault-events", encodedSpec(b, s)}, {"fallback", slow}} {
		data := path.data
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if specSink, err = DecodeSpec(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.Points))/1e3, "µs/point")
		})
	}
}

// TestDecodeSpecAllocs pins the fast path: a point's three strings and its
// share of the points slice. A spec that slid to the fallback pays them twice,
// once to the reader's wasted pass and once to encoding/json, one with a
// member of every point handed over pays a json.Decoder a point; both fail here.
func TestDecodeSpecAllocs(t *testing.T) {
	s := sweepSpec(500)
	data := encodedSpec(t, s)
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if specSink, err = DecodeSpec(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if perPoint := allocs / float64(len(s.Points)); perPoint > 4 {
		t.Errorf("decoding a spec allocated %.1f times a point, want at most 4", perPoint)
	}
}
