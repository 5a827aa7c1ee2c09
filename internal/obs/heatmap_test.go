package obs_test

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flexsim/internal/obs"
	"flexsim/internal/sim"
)

const heatmapHeader = "vc,label,samples,occupied,blocked,occupied_frac,blocked_frac"

// TestHeatmapAccumulatesAndExports: a heatmap requested of a saturating run
// (with no interval metrics configured — the heatmap alone must force the
// recorder) accumulates per-VC occupancy and renders a dense, parseable CSV:
// one row per VC of the run's network, each fraction its count over samples.
func TestHeatmapAccumulatesAndExports(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-config run")
	}
	c := sim.Quick()
	c.Load = 1.0
	probe, err := sim.NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	vcs := probe.Net.TotalVCs()

	path := filepath.Join(t.TempDir(), "heat.csv")
	c.HeatmapPath = path // MetricsEvery stays 0: the heatmap alone enables sampling
	if _, err := sim.Run(c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != vcs+1 {
		t.Fatalf("%d CSV rows for %d VCs", len(rows), vcs)
	}
	if header := strings.Join(rows[0], ","); header != heatmapHeader {
		t.Fatalf("header = %q", header)
	}
	samples := rows[1][2]
	anyOccupied := false
	for i, row := range rows[1:] {
		if row[0] != strconv.Itoa(i) {
			t.Fatalf("row %d keyed %q", i, row[0])
		}
		if row[1] == "" {
			t.Fatalf("row %d has no channel label", i)
		}
		if row[2] != samples {
			t.Fatalf("row %d samples %q, row 0 %q", i, row[2], samples)
		}
		n, err0 := strconv.ParseInt(row[2], 10, 64)
		occ, err1 := strconv.ParseInt(row[3], 10, 64)
		blk, err2 := strconv.ParseInt(row[4], 10, 64)
		if err0 != nil || err1 != nil || err2 != nil || n == 0 || occ > n || blk > occ {
			t.Fatalf("row %d: samples %q occupied %q blocked %q", i, row[2], row[3], row[4])
		}
		wantOcc := fmt.Sprintf("%.6f", float64(occ)/float64(n))
		wantBlk := fmt.Sprintf("%.6f", float64(blk)/float64(n))
		if row[5] != wantOcc || row[6] != wantBlk {
			t.Fatalf("row %d fractions %q %q, want %q %q", i, row[5], row[6], wantOcc, wantBlk)
		}
		if occ > 0 {
			anyOccupied = true
		}
	}
	if !anyOccupied {
		t.Fatal("saturating run left every VC idle")
	}
}

// TestHeatmapZeroValue: an unsampled heatmap writes a bare header.
func TestHeatmapZeroValue(t *testing.T) {
	var hm obs.Heatmap
	var b strings.Builder
	if err := hm.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(b.String()); got != heatmapHeader {
		t.Fatalf("zero-value CSV = %q", got)
	}
}
