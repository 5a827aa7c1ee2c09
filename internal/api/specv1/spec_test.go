package specv1

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// testSpec is a spec exercising both optional blocks.
func testSpec() *Spec {
	base := FromSim(sim.Quick())
	base.Routing = "dor"
	base.FaultEvents = []fault.Event{{Cycle: 100, Kind: fault.LinkDown, Ch: 3}}
	base.TimeoutThresholds = []int64{16, 64}
	return &Spec{
		SchemaVersion: Version,
		Name:          "golden",
		Base:          &base,
		Loads:         []float64{0.2, 0.6, 1.0},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := testSpec()
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed spec:\n got %+v\nwant %+v", got, spec)
	}
	// Re-encode must reproduce the bytes (canonical struct encoding).
	var buf2 bytes.Buffer
	if err := EncodeSpec(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encode not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

// TestSpecGolden pins the v1 wire format: the committed golden file must
// decode, expand, and re-encode byte-identically. Regenerate deliberately
// with UPDATE_GOLDEN=1 go test ./internal/api/specv1 — any diff is a wire
// format change and needs a schema version bump conversation.
func TestSpecGolden(t *testing.T) {
	path := filepath.Join("testdata", "spec_v1.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var buf bytes.Buffer
		if err := EncodeSpec(&buf, testSpec()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden spec does not decode: %v", err)
	}
	if !reflect.DeepEqual(spec, testSpec()) {
		t.Fatalf("golden spec decoded differently:\n got %+v\nwant %+v", spec, testSpec())
	}
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(buf.Bytes()), bytes.TrimSpace(data)) {
		t.Fatalf("golden spec re-encode drifted; the v1 wire format changed:\n%s\nvs golden\n%s",
			buf.Bytes(), data)
	}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("expanded %d configs, want 3", len(cfgs))
	}
	for i, c := range cfgs {
		if c.Load != spec.Loads[i] {
			t.Fatalf("point %d load %g, want %g", i, c.Load, spec.Loads[i])
		}
		if c.Seed != PointSeed(spec.Base.Seed, i) {
			t.Fatalf("point %d seed %d, want derived %d", i, c.Seed, PointSeed(spec.Base.Seed, i))
		}
	}
}

func TestDecodeSpecStrict(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown top-level field",
			`{"schema_version":1,"bogus":3,"base":{"k":4,"n":2},"loads":[0.5]}`,
			"bogus"},
		{"unknown nested field",
			`{"schema_version":1,"base":{"k":4,"n":2,"warp":9},"loads":[0.5]}`,
			"warp"},
		{"missing schema version",
			`{"base":{"k":4,"n":2},"loads":[0.5]}`,
			"schema_version 0"},
		{"wrong schema version",
			`{"schema_version":2,"base":{"k":4,"n":2},"loads":[0.5]}`,
			"schema_version 2"},
		{"points and base both set",
			`{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5],"points":[{"k":4,"n":2}]}`,
			"mutually exclusive"},
		{"base without loads",
			`{"schema_version":1,"base":{"k":4,"n":2}}`,
			"loads"},
		{"empty",
			`{"schema_version":1}`,
			"needs either"},
		{"trailing garbage",
			`{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]} {"x":1}`,
			"trailing"},
		// A closing delimiter is not "no more values": TestStrictMeansToTheEnd
		// has the full table, for every decoder and both decode paths.
		{"trailing }", `{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]}}`, "trailing"},
		{"trailing ]", `{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]}]`, "trailing"},
		{"trailing ] junk", `{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]} ] junk`, "trailing"},
		{"trailing x", `{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]}x`, "trailing"},
		{"trailing null", `{"schema_version":1,"base":{"k":4,"n":2},"loads":[0.5]} null`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("decoded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestExplicitPointsSpec(t *testing.T) {
	a, b := FromSim(sim.Quick()), FromSim(sim.Quick())
	b.Routing = "dor"
	spec := &Spec{SchemaVersion: Version, Points: []PointConfig{a, b}}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[1].Routing != "dor" {
		t.Fatalf("explicit points mis-expanded: %+v", cfgs)
	}
	if spec.NumPoints() != 2 {
		t.Fatalf("NumPoints = %d, want 2", spec.NumPoints())
	}
}

func TestParseLoads(t *testing.T) {
	got, err := ParseLoads(" 0.2, 0.6 ,1.0 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0.2, 0.6, 1.0}) {
		t.Fatalf("ParseLoads = %v", got)
	}
	if _, err := ParseLoads("0.2,zap"); err == nil {
		t.Fatal("bad load parsed")
	}
	if got, err := ParseLoads("  "); err != nil || got != nil {
		t.Fatalf("empty load list: %v, %v", got, err)
	}
}

func TestLoads(t *testing.T) {
	got := Loads(0.1, 0.3, 0.1)
	want := []float64{0.1, 0.2, 0.3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Loads = %v, want %v", got, want)
	}
}

// TestLoadsRangeAndDegenerate covers a five-point range, where float
// accumulation must not drop the endpoint, and a range with lo == hi.
func TestLoadsRangeAndDegenerate(t *testing.T) {
	got := Loads(0.1, 0.5, 0.1)
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if len(got) != len(want) {
		t.Fatalf("Loads = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("Loads[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Loads(0.5, 0.5, 0.1); len(got) != 1 {
		t.Errorf("degenerate Loads = %v", got)
	}
}

func TestPointSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := PointSeed(1, i)
		if seen[s] {
			t.Fatalf("PointSeed collision at %d", i)
		}
		seen[s] = true
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &stats.Result{Label: "t", Load: 0.5, Seed: 9, Delivered: 100, Deadlocks: 3}
	res.Latency.Observe(12)
	res.Latency.Observe(400)
	raw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("result decode/re-encode not byte-identical:\n%s\nvs\n%s", raw, raw2)
	}
	if nilRaw, err := EncodeResult(nil); err != nil || nilRaw != nil {
		t.Fatalf("EncodeResult(nil) = %v, %v", nilRaw, err)
	}
}

func TestResultsJSONL(t *testing.T) {
	raw, _ := EncodeResult(&stats.Result{Label: "x", Delivered: 1})
	in := []PointResult{
		{SchemaVersion: Version, Index: 0, Load: 0.2, Status: StatusDone, Result: raw},
		{SchemaVersion: Version, Index: 1, Load: 0.4, Status: StatusCached, Key: "abc", Result: raw},
	}
	var buf bytes.Buffer
	if err := WriteResults(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("results round trip:\n got %+v\nwant %+v", out, in)
	}
	if _, err := ReadResults(strings.NewReader(`{"schema_version":7,"index":0,"load":0,"status":"done"}`)); err == nil {
		t.Fatal("wrong result schema version accepted")
	}
}

func TestRunRequestResponseStrict(t *testing.T) {
	var buf bytes.Buffer
	req := &RunRequest{SchemaVersion: Version, Config: FromSim(sim.Quick()), TimeoutMS: 500}
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRunRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("run request round trip: %+v vs %+v", got, req)
	}
	if _, err := DecodeRunRequest(strings.NewReader(`{"schema_version":1,"config":{"k":4,"n":2},"zap":1}`)); err == nil {
		t.Fatal("unknown run-request field accepted")
	}
	if _, err := DecodeRunRequest(strings.NewReader(`{"config":{"k":4,"n":2}}`)); err == nil {
		t.Fatal("versionless run request accepted")
	}

	raw, _ := EncodeResult(&stats.Result{Delivered: 2})
	resp := &RunResponse{SchemaVersion: Version, Status: StatusDone, Worker: "w1", Persisted: true, Result: raw}
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	gotR, err := DecodeRunResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotR, resp) {
		t.Fatalf("run response round trip: %+v vs %+v", gotR, resp)
	}
	if _, err := DecodeRunResponse(strings.NewReader(`{"schema_version":1,"status":"done","nope":true}`)); err == nil {
		t.Fatal("unknown run-response field accepted")
	}
}

func TestEventDecode(t *testing.T) {
	ev, err := DecodeEvent([]byte(`{"type":"point","sweep":"s1","point":{"schema_version":1,"index":2,"load":0.4,"status":"done"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != "point" || ev.Point == nil || ev.Point.Index != 2 {
		t.Fatalf("event decoded wrong: %+v", ev)
	}
	if _, err := DecodeEvent([]byte(`{"type":"point","sweep":"s1","huh":1}`)); err == nil {
		t.Fatal("unknown event field accepted")
	}
}

func TestSweepStatusSettled(t *testing.T) {
	s := &SweepStatus{Done: 2, Cached: 3, Failed: 1, Cancelled: 1, Running: 4}
	if s.Settled() != 7 {
		t.Fatalf("Settled = %d, want 7", s.Settled())
	}
}
