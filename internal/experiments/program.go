package experiments

import (
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Program — the paper's final future-work item: deadlock formation under
// program-driven simulation. Runs closed-loop parallel kernels
// (nearest-neighbor stencil, binomial-tree all-reduce) to completion on the
// deadlock-prone configurations and reports completion time, deadlocks
// encountered and recoveries — the end-to-end cost a real application pays.
// Expected shape: unrestricted routing completes correct programs even on
// the most deadlock-prone network because detection + recovery delivers
// victims out of band; adding a VC or avoidance routing removes recoveries
// and usually shortens completion.
func programConfigs(o Options) []sim.Config {
	phases := 20
	if o.Quick {
		phases = 8
	}
	var cfgs []sim.Config
	for _, wl := range []string{"stencil", "allreduce"} {
		for _, n := range programNetworks {
			c := o.base()
			c.VCs = 1
			c.Workload = wl
			c.WorkloadPhases = phases
			c.ComputeDelay = 20
			c.WarmupCycles = 0
			c.MeasureCycles = 5000000 // safety cap
			n.mutate(&c)
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// programNetworks are the networks every kernel runs on, in plan order, by
// their row label. The label stays here, out of the configurations, whose
// keys it would change.
var programNetworks = []struct {
	label  string
	mutate func(*sim.Config)
}{
	{"DOR1 uni", func(c *sim.Config) { c.Routing = "dor"; c.Bidirectional = false }},
	{"DOR1 bi", func(c *sim.Config) { c.Routing = "dor" }},
	{"TFAR1", func(c *sim.Config) { c.Routing = "tfar" }},
	{"TFAR2", func(c *sim.Config) { c.Routing = "tfar"; c.VCs = 2 }},
	{"dateline-DOR2", func(c *sim.Config) { c.Routing = "dateline-dor"; c.VCs = 2 }},
}

func programTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable("Supplementary: program-driven workloads (future work)",
		"workload", "config", "completion_cycles", "messages", "deadlocks",
		"recovered", "mean_latency")
	for i, p := range pts {
		res := p.Result
		t.AddRow(cfgs[i].Workload, programNetworks[i%len(programNetworks)].label, res.Cycles,
			res.Delivered, res.Deadlocks, res.Recovered, res.MeanLatency())
	}
	t.AddNote("closed-loop kernels run to completion; deadlock recovery (Disha semantics) keeps programs live on unrestricted routing")
	return []*stats.Table{t}
}
