package obs_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"flexsim/internal/obs"
)

// goldenSweep and goldenFleet are fixed scenarios: every family non-empty,
// two workers, two retry causes, seven latencies totalling 61 ms.
func goldenSweep() *obs.SweepProgress {
	p := obs.NewSweepProgress([]string{"fig5", "fig6", "fig7"})
	p.Start("fig5")
	p.Finish("fig5", time.Second)
	p.Start("fig6")
	for _, st := range []string{"done", "done", "done", "done", "done", "cached", "cached", "failed", "cancelled"} {
		p.Settled(st)
	}
	return p
}

func goldenFleet() *obs.FleetMetrics {
	p := obs.NewSweepProgress(nil)
	m := obs.NewFleetMetrics(func() int { return 4 }, p)
	m.RunStart("w2")
	m.RunEnd("w2")
	m.RunStart("w1")
	m.RunEnd("w1")
	m.RunStart("w1")
	m.RunEnd("w1")
	m.RunStart("w2")
	m.Retry("worker-death")
	m.Retry("5xx")
	m.Retry("worker-death")
	m.Steal()
	for i, ms := range []int{1, 2, 3, 5, 8, 13, 29} {
		p.Settled([]string{"done", "cached", "done", "failed"}[i%4])
		m.PointSettled(time.Duration(ms) * time.Millisecond)
	}
	return m
}

// maskWallClock blanks the values of the two families computed from elapsed
// wall time.
func maskWallClock(s string) string {
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "flexsweep_worker_busy_fraction{") ||
			strings.HasPrefix(line, "flexsweep_worker_points_per_second{") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " X"
		}
	}
	return strings.Join(lines, "\n")
}

// TestSweepExpositionGolden and TestFleetExpositionGolden pin the two
// expositions prometheus.golden.txt does not cover. sweep.golden.txt was
// captured from the hand-written writer the registry replaced and is
// unchanged since; fleet.golden.txt differs from that capture by two fixes:
// each worker family is one group (TestExpositionFormat), and the summary's
// _sum is the histogram's own sum, not count × mean rounded down (7 points
// totalling 61 ms used to report 60).
func TestSweepExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenSweep().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep.golden.txt", b.String())
}

func TestFleetExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenFleet().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet.golden.txt", maskWallClock(b.String()))
	if want := "\nflexsweep_point_latency_ms_sum 61\nflexsweep_point_latency_ms_count 7\n"; !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

// checkExposition enforces what the text format asks of family grouping:
// a family's HELP and TYPE lines come once, together and first, and every
// sample line belongs to the family whose headers were written last — so
// a family's samples are contiguous and no family appears twice.
func checkExposition(body string) error {
	seen := map[string]bool{}
	family, typ := "", ""
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			family, _, _ = strings.Cut(line[len("# HELP "):], " ")
			if seen[family] {
				return fmt.Errorf("line %d: family %s appears twice", i+1, family)
			}
			seen[family] = true
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+family+" ") {
				return fmt.Errorf("line %d: HELP %s is not followed by its TYPE", i+1, family)
			}
			typ = lines[i+1][len("# TYPE "+family+" "):]
		case strings.HasPrefix(line, "# TYPE "):
			if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+family+" ") || !strings.HasPrefix(line, "# TYPE "+family+" ") {
				return fmt.Errorf("line %d: TYPE without its HELP: %s", i+1, line)
			}
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			if typ == "summary" {
				name = strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
			}
			if name != family {
				return fmt.Errorf("line %d: sample of %s under the headers of %q", i+1, name, family)
			}
		}
	}
	return nil
}

// fullMetrics is the /metrics body of a mux with all three sources
// attached.
func fullMetrics(t *testing.T) string {
	t.Helper()
	var live obs.Live
	live.Store(obs.Gauges{Cycle: 42})
	rec := httptest.NewRecorder()
	obs.NewMux(obs.WithLive(&live), obs.WithSweep(goldenSweep()), obs.WithFleet(goldenFleet())).
		ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

func TestExpositionFormat(t *testing.T) {
	interleaved := "# HELP a A.\n# TYPE a gauge\n# HELP b B.\n# TYPE b gauge\na{w=\"1\"} 1\nb{w=\"1\"} 2\n"
	if checkExposition(interleaved) == nil {
		t.Fatal("the check accepts samples interleaved under a block of headers")
	}
	body := fullMetrics(t)
	if err := checkExposition(body); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	for _, want := range []string{"flexsim_cycle 42\n", "flexsim_sweep_runs_done_total 5\n", `flexsweep_worker_points_total{worker="w2"} 1` + "\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestREADMEMetricsTable holds README's reference table to the code: one
// row per family on a /metrics with every source attached, in exposition
// order, with the type and help the exposition prints.
func TestREADMEMetricsTable(t *testing.T) {
	table := "| metric | type | help |\n| --- | --- | --- |\n"
	lines := strings.Split(fullMetrics(t), "\n")
	for i, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			table += fmt.Sprintf("| `%s` | %s | %s |\n", name, strings.TrimPrefix(lines[i+1], "# TYPE "+name+" "), help)
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), table) {
		t.Errorf("README.md \"Observability\" lacks the current metrics table; replace it with:\n%s", table)
	}
}
