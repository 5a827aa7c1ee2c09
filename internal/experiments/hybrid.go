package experiments

import (
	"fmt"

	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Hybrid — supplementary study of the paper's future-work item "hybrid
// message length": a bimodal mix of short (4-flit) control messages and
// long (32-flit) data messages at a fixed offered flit load, sweeping the
// short fraction. At a fixed flit load, raising the short fraction puts
// more, smaller worms in flight: each holds fewer channels (resource sets
// shrink), but the correlated dependencies close more often, so the count
// of (smaller, more local) deadlocks grows — mirroring the paper's
// uni-torus observation that simpler required correlations make deadlock
// more likely but less severe.
func hybridConfigs(o Options) []sim.Config {
	var cfgs []sim.Config
	for _, alg := range []string{"dor", "tfar"} {
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
			c := o.base()
			c.Routing = alg
			c.VCs = 1
			c.Load = 1.0
			c.MsgLenShort = 4
			c.ShortFrac = frac
			c.Label = fmt.Sprintf("%s frac=%.2f", alg, frac)
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func hybridTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable(fmt.Sprintf("Supplementary: hybrid message lengths (TFAR1/DOR1, load %.2f)", cfgs[0].Load),
		"routing", "short_frac", "mean_len", "ndl", "deadlocks",
		"mean_dlset", "mean_rset", "throughput", "latency")
	for i, p := range pts {
		r := p.Result
		t.AddRow(cfgs[i].Routing, cfgs[i].ShortFrac, r.MeanMsgLen, r.NormalizedDeadlocks(),
			r.Deadlocks, r.MeanDeadlockSet(), r.MeanResourceSet(), r.Throughput(), r.MeanLatency())
	}
	t.AddNote("expected shape: higher short fractions -> more but smaller/more-local deadlocks (resource sets shrink)")
	return []*stats.Table{t}
}
