package stats

import (
	"reflect"
	"testing"
)

// ParseResult is the fast path alone, for the external tests that need a
// simulator (which imports this package) to make their inputs.
var ParseResult = parseResult

// TestResultTableCoversStruct: the parser's table must name every field of
// Result, in declaration order, each with that very field as destination —
// so a field added to Result fails here instead of quietly demoting every
// stored point to the encoding/json fallback.
func TestResultTableCoversStruct(t *testing.T) {
	var r Result
	table := resultTable(&r)
	v := reflect.ValueOf(&r).Elem()
	if len(table) != v.NumField() {
		t.Fatalf("resultTable has %d entries, Result %d fields", len(table), v.NumField())
	}
	for i, f := range table {
		sf := v.Type().Field(i)
		if f.name != sf.Name {
			t.Errorf("entry %d is %q, field %d of Result is %q", i, f.name, i, sf.Name)
			continue
		}
		if tag, ok := sf.Tag.Lookup("json"); ok {
			t.Errorf("%s has a json tag %q; the parser keys members by field name", sf.Name, tag)
		}
		if got, want := reflect.TypeOf(f.dst), reflect.PointerTo(sf.Type); got != want {
			t.Errorf("%s: destination is a %v, want %v", sf.Name, got, want)
		} else if reflect.ValueOf(f.dst).Pointer() != v.Field(i).Addr().Pointer() {
			t.Errorf("%s: destination is not r.%s", sf.Name, sf.Name)
		}
	}
}
