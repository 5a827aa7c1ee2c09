package detect_test

import (
	"fmt"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/sim"
)

// TestCensusIsExact holds the census counted beside the cycle to one counted
// inline: at saturating DOR and TFAR points with one and two VCs, and a
// misrouting point, each due
// pass's message graph is rebuilt from a Snapshot just before the detector's
// Tick and its cycles counted, and the run's four census fields must be the
// recounts' sums, maximum and cap flag. Every recount that no cap stopped
// must equal the VC graph's count of the same snapshot, the census's oracle. It runs under the fig6/fig7 caps,
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
	}{{"dor", 1, 1.0}, {"tfar", 1, 1.0}, {"dor", 2, 1.0}, {"tfar", 2, 1.0},
		// A misrouted worm can pass a router twice, so a message can want
		// two VCs that one other message owns: a message-graph arc of
		// weight 2, which minimal routing never makes.
		{"misroute-far", 1, 0.3}}
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
			snap := det.Snapshot()
			g := cwg.NewMsgGraph(0).Build(snap)
			cycles, capped := g.CountCycles(opts)
			if !capped {
				if n, vcCapped := cwg.Build(snap).CountCycles(cwg.Options{}); n != cycles || vcCapped {
					t.Fatalf("cycle %d: the message graph counts %d cycles, the VC graph %d (capped %v)", r.Net.Now(), cycles, n, vcCapped)
				}
			}
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
