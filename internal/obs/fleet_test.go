package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestFleetMetricsCounters(t *testing.T) {
	p := NewSweepProgress(nil)
	m := NewFleetMetrics(func() int { return 2 }, p)
	m.RunStart("w1")
	m.RunEnd("w1")
	m.RunStart("w2")
	m.RunEnd("w2")
	m.Retry("worker-death")
	m.Retry("worker-death")
	m.Retry("5xx")
	m.Steal()
	for _, st := range []string{"done", "cached", "failed", "cancelled"} {
		p.Settled(st)
	}
	m.PointSettled(20 * time.Millisecond)
	m.PointSettled(0)
	m.PointSettled(50 * time.Millisecond)
	m.PointSettled(0)

	if got := m.QueueDepth(); got != 2 {
		t.Errorf("queue depth %d, want 2", got)
	}
	if got := m.InFlight(); got != 0 {
		t.Errorf("in-flight %d, want 0", got)
	}
	if got := m.Steals(); got != 1 {
		t.Errorf("steals %d, want 1", got)
	}
	r := m.Retries()
	if r["worker-death"] != 2 || r["5xx"] != 1 {
		t.Errorf("retries %v", r)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`status="cached"} 1`, `status="done"} 1`, `status="failed"} 2`} {
		if !strings.Contains(sb.String(), "flexsweep_points_total{"+want+"\n") {
			t.Errorf("settled: exposition lacks %s (cancelled counts as failed):\n%s", want, sb.String())
		}
	}
	if got := m.HitRatio(); got != 0.25 {
		t.Errorf("hit ratio %v, want 0.25", got)
	}
}

func TestFleetMetricsPrometheus(t *testing.T) {
	p := NewSweepProgress(nil)
	m := NewFleetMetrics(func() int { return 1 }, p)
	m.RunStart("w1")
	m.RunEnd("w1")
	m.Retry("worker-death")
	p.Settled("done")
	m.PointSettled(7 * time.Millisecond)

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"flexsweep_queue_depth 1",
		"flexsweep_inflight 0",
		"flexsweep_steals_total 0",
		`flexsweep_retries_total{cause="worker-death"} 1`,
		`flexsweep_points_total{status="done"} 1`,
		`flexsweep_worker_points_total{worker="w1"} 1`,
		"flexsweep_store_hit_ratio 0.000000",
		"flexsweep_point_latency_ms_count 1",
		`flexsweep_point_latency_ms{quantile="0.5"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output: two renders are byte-identical (sorted labels).
	var sb2 strings.Builder
	if err := m.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	// Busy fraction and points/sec depend on elapsed wall time; strip the
	// per-worker gauge lines before comparing.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "flexsweep_worker_busy_fraction") ||
				strings.HasPrefix(line, "flexsweep_worker_points_per_second") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(sb.String()) != strip(sb2.String()) {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestMuxWithFleetAndHealth(t *testing.T) {
	m := NewFleetMetrics(func() int { return 0 }, NewSweepProgress(nil))
	m.Retry("worker-death")
	srv, err := Serve("127.0.0.1:0",
		WithFleet(m),
		WithHealth(func(w io.Writer) { io.WriteString(w, "journal: /tmp/j.jsonl\nreplayed: 2 sweeps\n") }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(b)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `flexsweep_retries_total{cause="worker-death"} 1`) {
		t.Errorf("/metrics missing fleet gauges:\n%s", metrics)
	}
	health := get("/healthz")
	if !strings.HasPrefix(health, "ok\n") {
		t.Errorf("/healthz first line not ok: %q", health)
	}
	if !strings.Contains(health, "journal: /tmp/j.jsonl") {
		t.Errorf("/healthz missing detail lines: %q", health)
	}
}
