package experiments

import (
	"fmt"

	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Avoidance vs recovery — the paper's motivating question. At the same
// offered load (default 0.5 and 0.9, one table each) on the same torus it
// compares unrestricted routing with deadlock recovery (DOR/TFAR with free VC
// use, true detection, Disha-style absorption) against avoidance baselines
// (dateline DOR, Duato-protocol adaptive routing) that restrict VC use so
// that no knot can ever form. Expected shape: the avoidance rows show exactly
// 0 deadlocks by construction, and so, empirically, do the recovery rows with
// 3 VCs (DOR) or 2 VCs (TFAR): a few unrestricted VCs already make deadlock
// highly improbable, so recovery is viable.
func avoidanceConfigs(o Options) []sim.Config {
	loads := []float64{0.5, 0.9}
	if len(o.Loads) > 0 {
		loads = o.Loads
	}
	var cfgs []sim.Config
	for _, v := range []struct {
		label   string
		routing string
		vcs     int
	}{
		{"recovery: DOR, 1 VC (unrestricted)", "dor", 1},
		{"recovery: DOR, 2 VCs (unrestricted)", "dor", 2},
		{"recovery: DOR, 3 VCs (unrestricted)", "dor", 3},
		{"recovery: TFAR, 1 VC (unrestricted)", "tfar", 1},
		{"recovery: TFAR, 2 VCs (unrestricted)", "tfar", 2},
		{"avoidance: dateline DOR, 2 VCs", "dateline-dor", 2},
		{"avoidance: Duato FAR, 3 VCs", "duato-far", 3},
	} {
		c := o.base()
		c.Routing = v.routing
		c.VCs = v.vcs
		c.Label = v.label
		cfgs = append(cfgs, specv1.ExpandLoads(c, loads)...)
	}
	return cfgs
}

func avoidanceTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	all := curves(cfgs, pts)
	net := all[0].cfg
	var tables []*stats.Table
	for i, p := range all[0].pts {
		t := stats.NewTable(fmt.Sprintf("avoidance vs recovery at load %.1f (%d-ary %d-cube, %d-flit messages)",
			p.Load, net.K, net.N, net.MsgLen),
			"variant", "deadlocks", "ndl", "throughput", "latency", "pct_blocked")
		for _, c := range all {
			r := c.pts[i].Result
			t.AddRow(c.cfg.Label, r.Deadlocks, r.NormalizedDeadlocks(),
				r.Throughput(), r.MeanLatency(), 100*r.BlockedFraction())
		}
		t.AddNote("avoidance rows must show exactly 0 deadlocks by construction;")
		t.AddNote("recovery rows with >=3 VCs (DOR) / >=2 VCs (TFAR) show 0 empirically - the paper's key finding")
		tables = append(tables, t)
	}
	return tables
}
