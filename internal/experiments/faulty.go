package experiments

import (
	"fmt"
	"math"

	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Faulty — deadlock characterization under link failures: at a fixed
// offered load, sweep the steady-state failed-link fraction and measure how
// often the degraded network deadlocks, how much traffic the faults kill,
// and what unroutability costs. Each fraction f is realized as a generated
// link-failure schedule with repair time R and MTTF R*(1-f)/f (so
// f = R/(MTTF+R) of links are down in steady state), replicated over
// several (seed, fault-seed) pairs labelled "f=<f> r<replicate>";
// p_deadlock is the fraction of replicates that detected at least one
// deadlock. Expected shape: deadlock probability and normalized deadlocks
// rise with the failed-link fraction — faults consume the very path
// diversity that keeps adaptive routing out of knots — while
// killed/unroutable traffic grows roughly linearly.
func faultyConfigs(o Options) []sim.Config {
	fractions := []float64{0, 0.02, 0.05, 0.10, 0.20}
	replicates := 5
	repair := 2000
	load := 0.8
	if o.Quick {
		fractions = []float64{0, 0.05, 0.15}
		replicates = 3
		repair = 400
	}
	if len(o.Loads) > 0 {
		load = o.Loads[0]
	}

	base := o.base()
	base.Load = load
	var cfgs []sim.Config
	for _, f := range fractions {
		mttf := 0
		if f > 0 {
			mttf = int(float64(repair) * (1 - f) / f)
		}
		for r := 0; r < replicates; r++ {
			c := base
			c.Seed = base.Seed + uint64(r)
			c.Label = fmt.Sprintf("f=%.2f r%d", f, r)
			c.FaultLinkMTTF = mttf
			if mttf > 0 {
				c.FaultRepair = repair
				c.FaultSeed = base.Seed + 101*uint64(r) + 1
			}
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func faultyTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	// One group per failed-link fraction, read back from the labels.
	type group struct {
		f    float64
		mttf int
		pts  []runner.Point
	}
	var groups []group
	for i, c := range cfgs {
		var f float64
		if _, err := fmt.Sscanf(c.Label, "f=%g", &f); err != nil {
			f = math.NaN() // not a label this study wrote: a row of its own
		}
		if len(groups) == 0 || f != groups[len(groups)-1].f {
			groups = append(groups, group{f: f, mttf: c.FaultLinkMTTF})
		}
		groups[len(groups)-1].pts = append(groups[len(groups)-1].pts, pts[i])
	}

	// The last fraction is the largest, so its links fail and are repaired.
	t := stats.NewTable(
		fmt.Sprintf("Faulty: deadlock characterization vs failed-link fraction (load %.2g, repair %d)",
			cfgs[0].Load, cfgs[len(cfgs)-1].FaultRepair),
		"failed_frac", "mttf", "p_deadlock", "ndl", "killed_frac", "unroutable", "latency")
	for _, g := range groups {
		var deadlocked int
		var ndl, killedFrac, unroutable, latency float64
		for _, p := range g.pts {
			res := p.Result
			if res.Deadlocks > 0 {
				deadlocked++
			}
			ndl += res.NormalizedDeadlocks()
			killedFrac += res.KilledFraction()
			unroutable += float64(res.Unroutable)
			latency += res.MeanLatency()
		}
		n := float64(len(g.pts))
		t.AddRow(g.f, g.mttf, float64(deadlocked)/n, ndl/n, killedFrac/n, unroutable/n, latency/n)
	}
	t.AddNote("p_deadlock over %d replicates per fraction; f = repair/(mttf+repair) links down in steady state", len(groups[0].pts))
	t.AddNote("expected shape: deadlock probability and killed traffic rise with the failed-link fraction")
	return []*stats.Table{t}
}
