package experiments

import (
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Irregular — the paper's first-listed future-work item: deadlock
// characterization on irregular switch networks (networks of workstations).
// Compares unrestricted minimal adaptive routing (deadlocks possible,
// recovery-based) against Autonet-style up*/down* routing (deadlock-free by
// link orientation) on random connected switch graphs of varying density.
// Expected shape: up*/down* never deadlocks; min-adaptive forms deadlocks
// whose frequency falls as extra cross-links add alternative resources —
// the irregular analogue of the paper's bidirectionality/node-degree
// findings.
func irregularConfigs(o Options) []sim.Config {
	nodes := 64
	if o.Quick {
		nodes = 32
	}
	var cfgs []sim.Config
	for _, alg := range []string{"min-adaptive", "updown"} {
		for _, extra := range []int{8, 24, 48} {
			for _, load := range []float64{0.6, 1.0} {
				c := o.base()
				c.IrregularNodes = nodes
				c.IrregularLinks = extra
				c.Routing = alg
				c.VCs = 1
				c.Traffic = "uniform"
				c.Load = load
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

func irregularTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable("Supplementary: irregular switch networks (future work)",
		"routing", "extra_links", "load", "ndl", "deadlocks",
		"mean_dlset", "throughput", "pct_blocked")
	for i, p := range pts {
		r := p.Result
		t.AddRow(cfgs[i].Routing, cfgs[i].IrregularLinks, r.Load, r.NormalizedDeadlocks(),
			r.Deadlocks, r.MeanDeadlockSet(), r.Throughput(), 100*r.BlockedFraction())
	}
	t.AddNote("expected shape: up*/down* rows show exactly 0 deadlocks;")
	t.AddNote("min-adaptive deadlock frequency falls as extra links add routing resources")
	return []*stats.Table{t}
}
