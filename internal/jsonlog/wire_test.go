package jsonlog_test

// External test package: the messages below belong to packages that import
// jsonlog.

import (
	"bytes"
	"encoding/json"
	"math"
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
