package jsonlog_test

// External test package: the messages below belong to packages that import
// jsonlog.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/obs/fleettrace"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// TestWriterTakesPlan: correct is not enough — a message that Append hands
// to encoding/json costs what json.Marshal did, and nothing else would say so.
// Each per-point message of the store and the wire must come out of the plan
// alone, byte for byte json.Marshal's.
func TestWriterTakesPlan(t *testing.T) {
	res := &stats.Result{Label: "DOR1 uni", Load: 0.35, Cycles: 400, Nodes: 16, MeanMsgLen: 32, Seed: math.MaxUint64,
		Saturated: true, Delivered: 79, MeanActive: 9.905, MeanBlocked: 1e-7, MeanQueued: 1e21, Deadlocks: 3, Killed: -1}
	for i := int64(0); i < 79; i++ {
		res.Latency.Observe(34 + i*i%97)
	}
	res.DetectBuildTime.Grow(1e9)
	res.DetectBuildTime.Observe(300)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	tp := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	cfg := sim.Default()
	cfg.TimeoutThresholds = []int64{16, 64}
	point := specv1.PointResult{SchemaVersion: 1, Index: 2, Load: 0.35, Status: specv1.StatusDone, Key: "fd0d", Worker: "w1", Attempts: 2, Trace: tp, Result: raw}
	status := specv1.SweepStatus{SchemaVersion: 1, ID: "s1", State: specv1.SweepRunning, Total: 4, Done: 1, Retries: 1}
	spec := &specv1.Spec{SchemaVersion: 1, Name: "fig5", Points: []specv1.PointConfig{specv1.FromSim(cfg)}}
	for _, v := range []any{
		res, &stats.Result{}, &point, &specv1.PointResult{},
		&specv1.RunRequest{SchemaVersion: 1, Config: specv1.FromSim(cfg), TimeoutMS: 500, Trace: tp},
		&specv1.RunResponse{SchemaVersion: 1, Status: specv1.StatusCached, Worker: "w1", Persisted: true, Trace: tp, Result: raw},
		&specv1.RunResponse{SchemaVersion: 1, Status: specv1.StatusFailed, Error: "no such routing"},
		&specv1.Event{Type: "point", Sweep: "s1", Point: &specv1.PointResult{SchemaVersion: 1, Status: specv1.StatusCached}},
		&specv1.Event{Type: "progress", Sweep: "s1", Stat: &status},
		&specv1.SweepList{SchemaVersion: 1, Sweeps: []specv1.SweepStatus{status}},
		&fleettrace.Record{TS: 1, Kind: "attempt", State: "running", Sweep: "s1", Point: 3, Attempt: 1, Worker: "w1"},
		&fleettrace.Record{TS: 2, Kind: "sweep", Sweep: "s1", Name: "fig5", Spec: spec},
	} {
		before := jsonlog.HandedOver()
		got, err := jsonlog.Append(nil, v)
		want, werr := json.Marshal(v)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("%T:\n Append       %s, %v\n json.Marshal %s, %v", v, got, err, want, werr)
		}
		if n := jsonlog.HandedOver() - before; n != 0 {
			t.Errorf("%T: %d values handed to encoding/json, want none", v, n)
		}
	}
}

// TestPlansFollowTags: the reader's member names are the wire structs' own
// json tags, every wire message has a plan, and the only members left to
// encoding/json are the two DESIGN §8 names.
func TestPlansFollowTags(t *testing.T) {
	foreign := map[string]bool{}
	read := map[reflect.Type]map[int]bool{}
	visit := func(st reflect.Type, field int, name string, handed bool) {
		if read[st] == nil {
			read[st] = map[int]bool{}
		}
		read[st][field] = true
		f := st.Field(field)
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != tag {
			t.Errorf("%v.%s is read as %q, tagged %q", st, f.Name, name, tag)
		}
		if handed {
			foreign[st.Name()+"."+f.Name] = true
		}
	}
	for _, m := range []any{&specv1.Spec{}, &specv1.RunRequest{}, &specv1.RunResponse{}, &specv1.Event{}, &specv1.PointResult{}, &specv1.SweepStatus{}, &specv1.SweepList{}} {
		if typ := reflect.TypeOf(m).Elem(); !jsonlog.WalkPlan(typ, visit) {
			t.Errorf("%v has no plan: the reader refuses every one", typ)
		}
	}
	for st, fields := range read {
		if len(fields) != st.NumField() {
			t.Errorf("%v: plan has %d members, struct %d fields", st, len(fields), st.NumField())
		}
	}
	if want := map[string]bool{"PointConfig.FaultEvents": true, "SweepStatus.RetryCauses": true}; !reflect.DeepEqual(foreign, want) {
		t.Errorf("members left to encoding/json: %v, want %v", foreign, want)
	}
}

// TestReaderKeysAndReaders: an untagged field is read under its Go name, as
// encoding/json keys it, and a Reader (a Histogram) reads itself, so a
// struct holding both reads with nothing handed to encoding/json — in
// Append's member order, and in another order through the name lookup.
func TestReaderKeysAndReaders(t *testing.T) {
	type holder struct {
		Label   string
		Count   int64 `json:"n"`
		Latency stats.Histogram
	}
	in := holder{Label: "dor1", Count: 7}
	for i := int64(0); i < 40; i++ {
		in.Latency.Observe(3 * i)
	}
	data, err := jsonlog.Append(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	latency := data[bytes.Index(data, []byte(`{"counts"`)) : len(data)-1]
	reordered := []byte(`{ "Latency" : ` + string(latency) + `, "n":7, "Label":"dor1" }`)
	for _, doc := range [][]byte{data, reordered} {
		var got, want holder
		handed := 0
		n := jsonlog.Read(doc, &got, func([]byte, any) (int, error) {
			handed++
			return 0, errors.New("handed over")
		})
		if err := json.Unmarshal(doc, &want); err != nil || n != len(doc) || handed != 0 || !reflect.DeepEqual(got, want) || got.Label != "dor1" {
			t.Errorf("%s: the reader took %d of %d bytes, handing %d members over:\n read           %+v\n json.Unmarshal %+v, %v", doc, n, len(doc), handed, got, want, err)
		}
		var u holder
		if err := jsonlog.Unmarshal(doc, &u); err != nil || !reflect.DeepEqual(u, want) {
			t.Errorf("%s: jsonlog.Unmarshal %+v, %v; want %+v", doc, u, err, want)
		}
	}
}
