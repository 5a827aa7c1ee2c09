package stats

import (
	"bytes"
	"encoding/json"
	"strconv"

	"flexsim/internal/jsonlog"
)

// resultField is one member of the canonical Result encoding: the Go field
// name, which is its JSON key, and where its value goes.
type resultField struct {
	name string
	dst  any // *string, *float64, *int64, *int, *uint64, *bool or *Histogram
}

// resultTable lists every field of r in declaration order, the order
// json.Marshal writes them in. It is the whole of what parseResult knows
// about Result; TestResultTableCoversStruct holds it to the struct.
func resultTable(r *Result) [46]resultField {
	return [...]resultField{
		{"Label", &r.Label}, {"Load", &r.Load}, {"Cycles", &r.Cycles}, {"Nodes", &r.Nodes}, {"MeanMsgLen", &r.MeanMsgLen},
		{"Seed", &r.Seed}, {"Saturated", &r.Saturated}, {"Interrupted", &r.Interrupted}, {"QueuedStart", &r.QueuedStart}, {"QueuedEnd", &r.QueuedEnd},
		{"Generated", &r.Generated}, {"GeneratedFlits", &r.GeneratedFlits}, {"Delivered", &r.Delivered}, {"DeliveredFlits", &r.DeliveredFlits},
		{"Recovered", &r.Recovered}, {"SumLatency", &r.SumLatency}, {"LatencyN", &r.LatencyN}, {"Latency", &r.Latency},
		{"MeanActive", &r.MeanActive}, {"MeanBlocked", &r.MeanBlocked}, {"MeanQueued", &r.MeanQueued}, {"MeanFlits", &r.MeanFlits}, {"PeakActive", &r.PeakActive},
		{"Deadlocks", &r.Deadlocks}, {"SingleCycle", &r.SingleCycle}, {"MultiCycle", &r.MultiCycle},
		{"SumDeadlockSet", &r.SumDeadlockSet}, {"SumResourceSet", &r.SumResourceSet}, {"SumKnotVCs", &r.SumKnotVCs}, {"SumKnotCycles", &r.SumKnotCycles}, {"SumDependent", &r.SumDependent},
		{"MaxDeadlockSet", &r.MaxDeadlockSet}, {"MaxResourceSet", &r.MaxResourceSet}, {"MaxKnotCycles", &r.MaxKnotCycles},
		{"CensusSamples", &r.CensusSamples}, {"SumCycles", &r.SumCycles}, {"MaxCycles", &r.MaxCycles}, {"CensusCapped", &r.CensusCapped},
		{"Invocations", &r.Invocations}, {"GatedInvocations", &r.GatedInvocations}, {"DetectBuildTime", &r.DetectBuildTime}, {"DetectAnalyzeTime", &r.DetectAnalyzeTime},
		{"FaultEvents", &r.FaultEvents}, {"FaultsActiveEnd", &r.FaultsActiveEnd}, {"Killed", &r.Killed}, {"Unroutable", &r.Unroutable},
	}
}

// EncodeResult returns the canonical encoding of r — json.Marshal(r), by
// the plan-driven writer — that the store persists and the wire carries.
func EncodeResult(r *Result) ([]byte, error) {
	return jsonlog.Append(make([]byte, 0, 2048), r) // a 16-router point's is ~1.8 KB
}

// DecodeResult decodes a stored or wired Result into r as json.Unmarshal
// would. The bytes json.Marshal(Result) emits,
//
//	{"Label":"s","Load":f,"Cycles":i,…,"Unroutable":i}
//
// — every member of resultTable once, in that order, no whitespace; s plain
// ASCII with no escape; f a JSON number in float64's range; i a JSON integer
// in the field's range; true or false; a histogram in its own canonical form
// — are parsed in one pass, without reflection. Any other input goes to
// encoding/json unchanged, so the accepted language, the decoded value and
// the errors are encoding/json's. (Not an UnmarshalJSON method: that would
// switch DisallowUnknownFields off inside the strict specv1 decoders.)
func DecodeResult(raw []byte, r *Result) error {
	var t Result
	if !parseResult(raw, &t) {
		return json.Unmarshal(raw, r)
	}
	*r = t // every member was present, so there is nothing of r left to merge
	return nil
}

// parseResult parses the form described at DecodeResult into r, reporting
// false — with r partly written — for anything outside it.
func parseResult(b []byte, r *Result) bool {
	sep := byte('{')
	for _, f := range resultTable(r) {
		n := len(f.name) + 4 // sep, two quotes, colon
		if len(b) <= n || b[0] != sep || b[1] != '"' || string(b[2:n-2]) != f.name || b[n-2] != '"' || b[n-1] != ':' {
			return false
		}
		b, sep = b[n:], ','
		ok := false
		switch dst := f.dst.(type) {
		case *string:
			m := jsonlog.PlainLen(b[1:])
			if ok = b[0] == '"' && m >= 0; ok {
				*dst, b = string(b[1:1+m]), b[m+2:]
			}
		case *float64:
			// The grammar first: ParseFloat alone also takes "Inf", "0x1p-2" and ".5".
			m := max(jsonlog.NumberLen(b), 0)
			v, err := strconv.ParseFloat(string(b[:m]), 64)
			*dst, b, ok = v, b[m:], err == nil
		case *int64:
			*dst, b, ok = jsonlog.CutInt(b)
		case *int:
			var v int64
			v, b, ok = jsonlog.CutInt(b)
			*dst = int(v)
			ok = ok && int64(*dst) == v
		case *uint64:
			*dst, b, ok = jsonlog.CutUint(b)
		case *bool:
			if *dst = b[0] == 't'; *dst {
				b, ok = bytes.CutPrefix(b, []byte("true"))
			} else {
				b, ok = bytes.CutPrefix(b, []byte("false"))
			}
		case *Histogram:
			end := bytes.IndexByte(b, '}') + 1 // a canonical histogram nests nothing
			var w histogramJSON
			if w, ok = parseCanonical(b[:end]); ok {
				*dst, b = Histogram{w.Counts, w.Total, w.Sum, w.Max}, b[end:]
			}
		}
		if !ok {
			return false
		}
	}
	return len(b) == 1 && b[0] == '}'
}
