package obs

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestGaugeDeclaredOnce: a Gauges field exists for export only through its
// row in gauges. Every field gets a distinct value; each declaration must
// read exactly one field, every field must be read by one, and the value
// must arrive under the declared names in a CSV row, a JSONL row and the
// Prometheus text — and unchanged through Live and the Recorder. A field
// added without a declaration fails the count.
func TestGaugeDeclaredOnce(t *testing.T) {
	var g Gauges
	rv := reflect.ValueOf(&g).Elem()
	fieldOf := map[int64]string{}
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(int64(1000 + i))
		fieldOf[int64(1000+i)] = rv.Type().Field(i).Name
	}
	if len(gauges) != rv.NumField() {
		t.Fatalf("%d declarations for %d Gauges fields", len(gauges), rv.NumField())
	}

	var live Live
	live.Store(g)
	if got := live.Snapshot(); got != g {
		t.Errorf("Live.Snapshot = %+v, want %+v", got, g)
	}
	rec := NewRecorder(1)
	rec.Record(g)
	if got := rec.At(0); got != g {
		t.Errorf("Recorder.At = %+v, want %+v", got, g)
	}
	var csv, jsonl, prom strings.Builder
	NewCSVSink(&csv).Run(RunMeta{Label: "r"}, rec)
	NewJSONLSink(&jsonl).Run(RunMeta{Label: "r"}, rec)
	if err := live.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	header, cells := strings.Split(csvLines[0], ","), strings.Split(csvLines[1], ",")
	var row map[string]json.RawMessage
	if err := json.Unmarshal([]byte(jsonl.String()), &row); err != nil {
		t.Fatal(err)
	}
	if len(header) != 3+len(gauges) || len(row) != 3+len(gauges) {
		t.Errorf("%d CSV columns, %d JSONL members, want %d", len(header), len(row), 3+len(gauges))
	}

	for i, d := range gauges {
		v := d.get(&g)
		field, ok := fieldOf[v]
		if !ok {
			t.Errorf("gauge %q reads %d: no field, or one an earlier declaration read", d.col, v)
			continue
		}
		delete(fieldOf, v)
		want := strconv.FormatInt(v, 10)
		if header[3+i] != d.col || cells[3+i] != want {
			t.Errorf("%s: CSV column %d is %s=%s, want %s=%s", field, 3+i, header[3+i], cells[3+i], d.col, want)
		}
		if string(row[d.col]) != want {
			t.Errorf("%s: JSONL %q = %q, want %s", field, d.col, row[d.col], want)
		}
		if line := "# TYPE " + d.name + " " + d.typ + "\n" + d.name + " " + want + "\n"; !strings.Contains(prom.String(), line) {
			t.Errorf("%s: exposition lacks %q", field, line)
		}
	}
	for _, field := range fieldOf {
		t.Errorf("Gauges.%s has no declaration in gauges", field)
	}
}
