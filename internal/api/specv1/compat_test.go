package specv1

// Wire-compat pins for the fleet-tracing additions: every payload a
// pre-tracing (PR 9) peer emits must still strict-decode, and the new
// trace/cause fields must be optional (omitted when empty) so a pre-tracing
// peer's strict decoder never sees them from a tracing-off coordinator.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCompatPreTracePayloadsDecode pins that payloads without any trace
// fields — what every v1 peer before fleet tracing produced — still pass
// the strict decoders.
func TestCompatPreTracePayloadsDecode(t *testing.T) {
	runReq := `{"schema_version":1,"config":{"label":"x","load":0.5},"timeout_ms":1000}`
	if _, err := DecodeRunRequest(strings.NewReader(runReq)); err != nil {
		t.Fatalf("pre-trace run request: %v", err)
	}

	runResp := `{"schema_version":1,"status":"done","worker":"w1","persisted":true,"result":{}}`
	if _, err := DecodeRunResponse(strings.NewReader(runResp)); err != nil {
		t.Fatalf("pre-trace run response: %v", err)
	}

	event := `{"type":"point","sweep":"s1","point":{"schema_version":1,"index":0,"load":0.5,"status":"done"}}`
	if _, err := DecodeEvent([]byte(event)); err != nil {
		t.Fatalf("pre-trace event: %v", err)
	}

	results := `{"schema_version":1,"index":0,"load":0.5,"status":"done","key":"k","attempts":1}` + "\n"
	if _, err := ReadResults(strings.NewReader(results)); err != nil {
		t.Fatalf("pre-trace results line: %v", err)
	}
}

// TestCompatTraceFieldsOptional pins that the new fields are omitempty: a
// tracing-off coordinator emits byte-for-byte pre-trace payloads, so a
// strict pre-trace decoder (which rejects unknown fields) interoperates.
func TestCompatTraceFieldsOptional(t *testing.T) {
	for name, v := range map[string]any{
		"run request":  &RunRequest{SchemaVersion: 1},
		"run response": &RunResponse{SchemaVersion: 1, Status: StatusDone},
		"point result": &PointResult{SchemaVersion: 1, Status: StatusDone},
		"event":        &Event{Type: "point", Sweep: "s1"},
		"sweep status": &SweepStatus{SchemaVersion: 1, ID: "s1", State: SweepDone},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, field := range []string{"trace", "cause", "stolen", "retry_causes"} {
			if bytes.Contains(b, []byte(`"`+field+`"`)) {
				t.Errorf("%s: empty %q serialized: %s", name, field, b)
			}
		}
	}
}

// TestCompatTraceFieldsRoundTrip pins that populated trace fields survive
// the strict decoders.
func TestCompatTraceFieldsRoundTrip(t *testing.T) {
	tp := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"

	req := &RunRequest{SchemaVersion: 1, Trace: tp}
	b, _ := json.Marshal(req)
	got, err := DecodeRunRequest(bytes.NewReader(b))
	if err != nil || got.Trace != tp {
		t.Fatalf("run request trace round-trip: %+v, %v", got, err)
	}

	resp := &RunResponse{SchemaVersion: 1, Status: StatusDone, Trace: tp}
	b, _ = json.Marshal(resp)
	gotR, err := DecodeRunResponse(bytes.NewReader(b))
	if err != nil || gotR.Trace != tp {
		t.Fatalf("run response trace round-trip: %+v, %v", gotR, err)
	}

	ev := &Event{Type: "retry", Sweep: "s1", Cause: "worker-death", Trace: tp,
		Point: &PointResult{SchemaVersion: 1, Index: 2, Status: StatusRetrying}}
	b, _ = json.Marshal(ev)
	gotE, err := DecodeEvent(b)
	if err != nil || gotE.Cause != "worker-death" || gotE.Trace != tp || gotE.Point.Status != StatusRetrying {
		t.Fatalf("retry event round-trip: %+v, %v", gotE, err)
	}

	st := &SweepStatus{SchemaVersion: 1, ID: "s1", State: SweepRunning,
		Retries: 2, Stolen: 1, RetryCauses: map[string]int{"worker-death": 2}}
	b, _ = json.Marshal(st)
	gotS, err := DecodeStatus(bytes.NewReader(b))
	if err != nil || gotS.Stolen != 1 || gotS.RetryCauses["worker-death"] != 2 {
		t.Fatalf("sweep status round-trip: %+v, %v", gotS, err)
	}
}
