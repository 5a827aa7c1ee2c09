package specv1

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
)

// TestFieldCoverage pins the wire contract to the cache key. That every
// sim.Spec field has a PointConfig counterpart is checked by the compiler
// (FromSim/ToSim are struct conversions); what a conversion cannot see is the
// tags, so for every field of sim.Spec a mutation must change runner.Key and
// must survive encoding to JSON and strict decoding back. A field tagged "-"
// or under a name another field already uses would fail here instead of
// silently never travelling — which would make a sweep service run a
// different physics than the client asked for while caching it under the
// client's key.
func TestFieldCoverage(t *testing.T) {
	base := sim.Default()
	baseKey := runner.Key(base)
	typ := reflect.TypeOf(base.Spec)
	for i := 0; i < typ.NumField(); i++ {
		mutated := base
		mutateField(reflect.ValueOf(&mutated.Spec).Elem().Field(i))
		key := runner.Key(mutated)
		if key == baseKey {
			t.Errorf("sim.Spec.%s does not change the cache key", typ.Field(i).Name)
		}
		wire, err := json.Marshal(RunRequest{SchemaVersion: Version, Config: FromSim(mutated)})
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRunRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("sim.Spec.%s: %v", typ.Field(i).Name, err)
		}
		if got := runner.Key(back.Config.ToSim()); got != key {
			t.Errorf("sim.Spec.%s does not survive the wire (key %s != %s); check its PointConfig tag",
				typ.Field(i).Name, got[:12], key[:12])
		}
	}
}

// mutateField sets a sim.Spec field to a non-default value.
func mutateField(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 7)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.375)
	case reflect.String:
		v.SetString(v.String() + "zz")
	case reflect.Slice:
		switch elem := v.Type().Elem(); elem {
		case reflect.TypeOf(int64(0)):
			v.Set(reflect.ValueOf([]int64{3, 9}))
		case reflect.TypeOf(fault.Event{}):
			v.Set(reflect.ValueOf([]fault.Event{{Cycle: 5, Kind: fault.LinkDown, Ch: 2}}))
		default:
			panic("specv1 test: add a mutation for slice element type " + elem.String())
		}
	default:
		panic("specv1 test: add a mutation for kind " + v.Kind().String())
	}
}

func TestConfigRoundTripEquality(t *testing.T) {
	c := sim.Default()
	c.Mesh = false
	c.MsgLenShort = 4
	c.ShortFrac = 0.25
	c.Workload = "stencil"
	c.WorkloadPhases = 3
	c.FaultEvents = []fault.Event{{Cycle: 9, Kind: fault.NodeDown, Node: 7}}
	c.TimeoutThresholds = []int64{32}
	c.Label = "roundtrip"
	round := FromSim(c).ToSim()
	if !reflect.DeepEqual(round, c) {
		t.Fatalf("plumbing-free config changed by round trip:\n got %+v\nwant %+v", round, c)
	}
	if runner.Key(round) != runner.Key(c) {
		t.Fatal("round trip changed the cache key")
	}
}

// TestPlumbingDoesNotTravel pins that runtime plumbing fields have no wire
// form: a config with observation hooks attached produces the same wire
// bytes as one without.
func TestPlumbingDoesNotTravel(t *testing.T) {
	plain := sim.Quick()
	wired := plain
	wired.MetricsEvery = 100
	wired.ProfileEngine = true
	wired.SpansPath = "spans-*.json"
	wired.HeatmapPath = "heat-*.csv"
	wired.ForensicsDepth = 64
	wired.IncidentDOT = true
	a, err := json.Marshal(FromSim(plain))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(FromSim(wired))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("plumbing leaked onto the wire:\n%s\nvs\n%s", a, b)
	}
}

func TestPointConfigJSONNames(t *testing.T) {
	// Spot-check the explicit snake_case names (a sorted-map encode would
	// fail the golden test; this guards individual tag typos).
	raw, err := json.Marshal(FromSim(sim.Quick()))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"k", "n", "bidirectional", "vcs", "buffer_depth",
		"msg_len", "routing", "traffic", "load", "seed", "warmup_cycles",
		"measure_cycles", "detect_every", "victim_policy", "recover"} {
		if _, ok := m[want]; !ok {
			t.Errorf("wire encoding missing field %q (have %v)", want, keys(m))
		}
	}
	for got := range m {
		for _, r := range got {
			if r >= 'A' && r <= 'Z' {
				t.Errorf("wire field %q is not snake_case", got)
			}
		}
	}
}

func keys(m map[string]interface{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
