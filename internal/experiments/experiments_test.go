package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flexsim/internal/stats"
)

// microOpts shrinks every experiment to seconds for CI.
func microOpts() Options {
	return Options{Quick: true, Loads: []float64{0.3, 1.0}, Seed: 42}
}

func runExperiment(t *testing.T, id string) []*stats.Table {
	t.Helper()
	f, err := ByName(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := f(context.Background(), microOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tbl := range tables {
		if tbl.Title == "" || len(tbl.Headers) == 0 {
			t.Errorf("%s: malformed table %+v", id, tbl)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: table %q has no rows", id, tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Headers) {
				t.Errorf("%s: row width %d != header width %d in %q",
					id, len(row), len(tbl.Headers), tbl.Title)
			}
		}
	}
	return tables
}

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() = %v", names)
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig5Shape(t *testing.T) {
	tables := runExperiment(t, "fig5")
	if len(tables) != 2 {
		t.Fatalf("fig5 produced %d tables", len(tables))
	}
	// At the saturating load, the uni torus must out-deadlock the bi.
	a := tables[0]
	last := a.Rows[len(a.Rows)-1]
	var ndlUni, ndlBi float64
	mustScan(t, last[1], &ndlUni)
	mustScan(t, last[2], &ndlBi)
	if ndlUni <= ndlBi {
		t.Errorf("uni ndl %v not above bi ndl %v at deep saturation", ndlUni, ndlBi)
	}
}

func TestFig6Shape(t *testing.T) {
	tables := runExperiment(t, "fig6")
	a := tables[0]
	// DOR invariant: every cycle is a knot, so the cycle and deadlock
	// columns must be identical at every load.
	for _, row := range a.Rows {
		if row[1] != row[2] {
			t.Errorf("DOR cycles %s != deadlocks %s (every DOR1 cycle must be a knot)", row[2], row[1])
		}
	}
	// TFAR forms cyclic non-deadlocks: cycles >= deadlocks.
	last := a.Rows[len(a.Rows)-1]
	var ndl, ncyc float64
	mustScan(t, last[3], &ndl)
	mustScan(t, last[4], &ncyc)
	if ncyc < ndl {
		t.Errorf("TFAR cycles %v below deadlocks %v", ncyc, ndl)
	}
}

func TestFig7Shape(t *testing.T) {
	tables := runExperiment(t, "fig7")
	a := tables[0]
	if len(a.Headers) != 9 {
		t.Fatalf("fig7a headers: %v", a.Headers)
	}
	// DOR3+ / TFAR2+ columns must be all zero.
	for _, row := range a.Rows {
		for _, col := range []int{3, 4, 6, 7, 8} { // DOR3, DOR4, TFAR2..4
			if row[col] != "0" {
				t.Errorf("column %s nonzero at load %s: %s (must never deadlock)",
					a.Headers[col], row[0], row[col])
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tables := runExperiment(t, "fig8")
	a := tables[0]
	// Virtual cut-through (buffer 32) must deadlock no more than the
	// smallest buffer at the deepest load.
	last := a.Rows[len(a.Rows)-1]
	var buf2, buf32 float64
	mustScan(t, last[1], &buf2)
	mustScan(t, last[6], &buf32)
	if buf32 > buf2 {
		t.Errorf("VCT ndl %v above wormhole ndl %v", buf32, buf2)
	}
}

func TestDegreeShape(t *testing.T) {
	tables := runExperiment(t, "degree")
	tbl := tables[0]
	// Total deadlocks: high-degree torus must have strictly fewer.
	var lo, hi int
	for _, row := range tbl.Rows {
		var l, h int
		mustScanInt(t, row[3], &l)
		mustScanInt(t, row[4], &h)
		lo += l
		hi += h
	}
	if hi >= lo {
		t.Errorf("high-degree deadlocks %d not below low-degree %d", hi, lo)
	}
}

func TestTrafficTable(t *testing.T) {
	tables := runExperiment(t, "traffic")
	if got := len(tables[0].Rows); got != 10 {
		t.Errorf("traffic rows = %d, want 10 (5 patterns x 2 algorithms)", got)
	}
}

func TestPerformanceAndAblations(t *testing.T) {
	runExperiment(t, "perf")
	runExperiment(t, "ablate")
}

func TestMeshStudyShape(t *testing.T) {
	tables := runExperiment(t, "mesh")
	for _, row := range tables[0].Rows {
		topo, alg, deadlocks := row[0], row[1], row[4]
		free := topo == "mesh" && (alg == "dor" || alg == "negative-first" || alg == "west-first")
		if free && deadlocks != "0" {
			t.Errorf("%s/%s reported %s deadlocks; must be deadlock-free", topo, alg, deadlocks)
		}
	}
}

func TestTimeoutApproxShape(t *testing.T) {
	tables := runExperiment(t, "approx")
	// Within each config, the flagged count must be non-increasing in the
	// threshold, and precision must stay below 1 whenever something is
	// flagged alongside false positives.
	var prevCfg string
	var prevFlagged float64
	for _, row := range tables[0].Rows {
		var flagged, falsePos, precision float64
		mustScan(t, row[2], &flagged)
		mustScan(t, row[5], &falsePos)
		mustScan(t, row[6], &precision)
		if row[0] == prevCfg && flagged > prevFlagged {
			t.Errorf("%s: flagged grew with threshold (%v -> %v)", row[0], prevFlagged, flagged)
		}
		prevCfg, prevFlagged = row[0], flagged
		if falsePos > 0 && precision >= 1 {
			t.Errorf("%s threshold %s: precision %v with %v false positives", row[0], row[1], precision, falsePos)
		}
	}
}

func TestProgramDrivenShape(t *testing.T) {
	tables := runExperiment(t, "program")
	for _, row := range tables[0].Rows {
		if row[1] == "dateline-DOR2" && row[4] != "0" {
			t.Errorf("avoidance routing reported %s deadlocks in a program run", row[4])
		}
		// Every kernel must have completed (deliveries recorded).
		if row[3] == "0" {
			t.Errorf("%s/%s delivered nothing", row[0], row[1])
		}
	}
}

func TestIrregularShape(t *testing.T) {
	tables := runExperiment(t, "irregular")
	for _, row := range tables[0].Rows {
		if row[0] == "updown" && row[4] != "0" {
			t.Errorf("up*/down* row reported %s deadlocks; must be deadlock-free", row[4])
		}
	}
}

func TestAvoidanceShape(t *testing.T) {
	tables := runExperiment(t, "avoidance")
	loads := microOpts().Loads
	if len(tables) != len(loads) {
		t.Fatalf("avoidance produced %d tables, want one per load", len(tables))
	}
	for i, tbl := range tables {
		oneVCDeadlocks := false
		for _, row := range tbl.Rows {
			label, deadlocks := row[0], row[1]
			if strings.HasPrefix(label, "avoidance:") && deadlocks != "0" {
				t.Errorf("%s: %q reported %s deadlocks; must be deadlock-free", tbl.Title, label, deadlocks)
			}
			if strings.Contains(label, " 1 VC ") && deadlocks != "0" {
				oneVCDeadlocks = true
			}
		}
		if loads[i] == 1.0 && !oneVCDeadlocks {
			t.Errorf("%s: no 1-VC recovery row deadlocked", tbl.Title)
		}
	}
}

func TestHybridLengthShape(t *testing.T) {
	tables := runExperiment(t, "hybrid")
	if len(tables[0].Rows) != 10 {
		t.Fatalf("hybrid rows = %d", len(tables[0].Rows))
	}
	// Mean length column must fall as the short fraction rises.
	var prev float64 = 1e9
	for _, row := range tables[0].Rows[:5] {
		var mean float64
		mustScan(t, row[2], &mean)
		if mean >= prev {
			t.Errorf("mean length not decreasing: %v then %v", prev, mean)
		}
		prev = mean
	}
}

func TestUpper(t *testing.T) {
	if upper("dor") != "DOR" || upper("tfar2") != "TFAR2" {
		t.Error("upper broken")
	}
}

func mustScan(t *testing.T, s string, v *float64) {
	t.Helper()
	if _, err := sscan(s, v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
}

func mustScanInt(t *testing.T, s string, v *int) {
	t.Helper()
	var f float64
	mustScan(t, s, &f)
	*v = int(f)
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
