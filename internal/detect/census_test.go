package detect_test

import (
	"fmt"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/sim"
)

// TestCensusIsExact holds the census counted beside the cycle to one counted
// inline: at saturating DOR and TFAR points with one and two VCs, each due
// pass's graph is rebuilt from a Snapshot just before the detector's Tick and
// its cycles counted with Analyze, and the run's four census fields must be
// the recounts' sums, maximum and cap flag. It runs under the fig6/fig7 caps,
// under caps so small that every pass with a cycle hits them, and under a
// work cap that stops some counts part way, where the count depends on the
// order the snapshot lists messages in (a copy in any other order than
// ActiveMessages' fails there).
func TestCensusIsExact(t *testing.T) {
	caps := []struct {
		name            string
		maxCycles, work int
		allCapped       bool
	}{
		{"fig6/fig7 caps", 100000, 2000000, false},
		{"every pass capped", 1, 40, true},
		{"work capped", 1000, 300, false},
	}
	points := []struct {
		routing string
		vcs     int
		load    float64
	}{{"dor", 1, 1.0}, {"tfar", 1, 1.0}, {"dor", 2, 1.0}, {"tfar", 2, 1.0}}
	for _, c := range caps {
		for _, p := range points {
			name := fmt.Sprintf("%s/%s%d", c.name, p.routing, p.vcs)
			t.Run(name, func(t *testing.T) {
				checkCensus(t, p.routing, p.vcs, p.load, c.maxCycles, c.work, c.allCapped)
			})
		}
	}
}

// checkCensus steps the paper's 16-ary 2-cube, whose runner's own detector never runs,
// under a census detector with recovery on, and compares that detector's
// census with the inline recounts.
func checkCensus(t *testing.T, routing string, vcs int, load float64, maxCycles, maxWork int, allCapped bool) {
	cfg := sim.Default()
	cfg.Routing, cfg.VCs, cfg.Load = routing, vcs, load
	cfg.DetectEvery = 1 << 30
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 750; i++ { // saturate before the first pass
		r.StepCycle()
	}
	const every = 50
	det, err := detect.New(r.Net, detect.Config{Every: every, Recover: true, CycleCensus: true,
		MaxCycles: maxCycles, MaxWork: maxWork})
	if err != nil {
		t.Fatal(err)
	}
	opts := cwg.Options{MaxCycles: maxCycles, MaxWork: maxWork}
	var want struct {
		samples, sum int64
		max          int
		capped       bool
		cappedPasses int64
	}
	for i := 0; i < 1000; i++ {
		r.StepCycle()
		if r.Net.Now()%every == 0 {
			g := cwg.Build(det.Snapshot())
			cycles, capped := g.CountCycles(opts)
			want.samples++
			want.sum += int64(cycles)
			want.max = max(want.max, cycles)
			if capped {
				want.capped = true
				want.cappedPasses++
			} else if n, _ := g.CountCycles(cwg.Options{}); allCapped && n > 0 {
				t.Fatalf("cycle %d: %d cycles, and caps %d/%d did not stop the count", r.Net.Now(), n, maxCycles, maxWork)
			}
		}
		det.Tick()
	}
	det.Wait()
	s := det.Stats
	if s.CensusSamples != want.samples || s.SumCycles != want.sum || s.MaxCycles != want.max || s.CensusCapped != want.capped {
		t.Errorf("census samples %d, sum %d, max %d, capped %v; the inline recount %d, %d, %d, %v",
			s.CensusSamples, s.SumCycles, s.MaxCycles, s.CensusCapped, want.samples, want.sum, want.max, want.capped)
	}
	if allCapped && want.cappedPasses == 0 {
		t.Fatal("no pass hit the caps")
	}
	t.Logf("%d passes (%d capped), %d cycles, max %d, %d deadlocks",
		want.samples, want.cappedPasses, want.sum, want.max, s.Deadlocks)
}
