package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/stats"
)

// planKeys returns the content address of every point a study plans under
// o, in plan order.
func planKeys(t *testing.T, spec *specv1.Spec) []string {
	t.Helper()
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		keys[i] = runner.Key(c)
	}
	return keys
}

// TestPlanKeys pins which configurations every study runs: the content
// address of each planned point, in order, under microOpts() and under the
// defaults. A different configuration, label, seed or order changes a key
// here, and the points a store holds for the study stop being served. The
// keys survive the spec's JSON form, which is what sweepctl mkspec writes
// and a sweep service reads. Regenerate with UPDATE_GOLDEN=1 only for a
// change that means to re-key a study.
func TestPlanKeys(t *testing.T) {
	got := map[string]map[string][]string{}
	for _, s := range studies {
		got[s.name] = map[string][]string{}
		for name, o := range map[string]Options{"micro": microOpts(), "default": {}} {
			spec := s.Plan(o)
			got[s.name][name] = planKeys(t, spec)

			var file bytes.Buffer
			if err := specv1.EncodeSpec(&file, spec); err != nil {
				t.Fatal(err)
			}
			back, err := specv1.DecodeSpec(&file)
			if err != nil {
				t.Fatal(err)
			}
			if keys := planKeys(t, back); strings.Join(keys, ",") != strings.Join(got[s.name][name], ",") {
				t.Errorf("%s (%s): the spec's JSON form plans different keys", s.name, name)
			}
		}
	}

	path := filepath.Join("testdata", "plan_keys.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(studies) {
		t.Errorf("golden has %d studies, the registry %d", len(want), len(studies))
	}
	for id, byOpts := range got {
		for name, keys := range byOpts {
			w := want[id][name]
			if len(keys) != len(w) {
				t.Errorf("%s (%s): %d points planned, golden has %d", id, name, len(keys), len(w))
				continue
			}
			for i := range keys {
				if keys[i] != w[i] {
					t.Errorf("%s (%s): point %d key %.12s…, golden %.12s…", id, name, i, keys[i], w[i])
					break
				}
			}
		}
	}
}

// maskTimings blanks the cells of perf's det_* columns, which time the
// detector on the machine at hand.
func maskTimings(tables []*stats.Table) {
	for _, tbl := range tables {
		for c, h := range tbl.Headers {
			if strings.HasPrefix(h, "det_") {
				for _, row := range tbl.Rows {
					row[c] = "-"
				}
			}
		}
	}
}

// TestTablesGolden holds every experiment but verify (whose notes carry a
// wall time) to its recorded text under microOpts(). A study's results take
// the fleet's wire path first — specv1.WriteResults, then ReadResults — so
// the check is that what a sweep service returns tabulates to these bytes.
// Regenerate with UPDATE_GOLDEN=1 only for a change that means to alter a
// table.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every study; the shape tests run them in -short")
	}
	for _, id := range Names() {
		if id == "verify" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			tables, err := wireTables(id)
			if err != nil {
				t.Fatal(err)
			}
			maskTimings(tables)
			var got bytes.Buffer
			for _, tbl := range tables {
				if err := tbl.WriteText(&got); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", "tables", id+".txt")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("tables differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
			}
		})
	}
}

// wireTables runs experiment id under microOpts(); a study's results go
// through the JSONL wire form before Tabulate sees them.
func wireTables(id string) ([]*stats.Table, error) {
	s, err := StudyByName(id)
	if err != nil {
		f, err := ByName(id)
		if err != nil {
			return nil, err
		}
		return f(microOpts())
	}
	spec := s.Plan(microOpts())
	cfgs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	results, err := specv1.PointResults(cfgs, runner.Map(context.Background(), cfgs, runner.Options{}))
	if err != nil {
		return nil, err
	}
	var wire bytes.Buffer
	if err := specv1.WriteResults(&wire, results); err != nil {
		return nil, err
	}
	if results, err = specv1.ReadResults(&wire); err != nil {
		return nil, err
	}
	return s.Tabulate(spec, results)
}

// TestTabulateRefusesIncompleteResults: a failed point fails the study with
// its error, named by its load; a missing or misplaced point is an error,
// not a shorter table.
func TestTabulateRefusesIncompleteResults(t *testing.T) {
	s, err := StudyByName("fig5")
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Plan(microOpts())
	results := make([]specv1.PointResult, len(spec.Points))
	for i, p := range spec.Points {
		results[i] = specv1.PointResult{SchemaVersion: specv1.Version, Index: i, Load: p.Load, Status: specv1.StatusDone, Result: json.RawMessage(`{}`)}
	}
	results[1].Status, results[1].Error, results[1].Result = specv1.StatusFailed, "boom", nil
	if _, err := s.Tabulate(spec, results); err == nil || err.Error() != "load 1.000: boom" {
		t.Errorf("failed point: err = %v, want load 1.000: boom", err)
	}
	if _, err := s.Tabulate(spec, results[:2]); err == nil {
		t.Error("two results for four points tabulated")
	}
	results[0], results[1] = results[1], results[0]
	if _, err := s.Tabulate(spec, results); err == nil {
		t.Error("results out of index order tabulated")
	}
}

// TestNotSweeps: approx and verify run, but have no plan to hand anyone.
func TestNotSweeps(t *testing.T) {
	for _, id := range []string{"approx", "verify"} {
		if _, err := StudyByName(id); err == nil || !strings.Contains(err.Error(), "not a sweep") {
			t.Errorf("StudyByName(%q) = %v, want a not-a-sweep error", id, err)
		}
	}
	if _, err := StudyByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("StudyByName(nope) = %v", err)
	}
	if got := len(studies) + 2; got != len(Names()) {
		t.Errorf("%d studies + approx + verify != %d experiments", len(studies), len(Names()))
	}
}
