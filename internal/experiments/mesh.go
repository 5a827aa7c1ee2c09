package experiments

import (
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Mesh — supplementary: the same radix as a mesh instead of a torus.
// Removing the wraparound links removes the dependency cycles DOR needs, so
// DOR on a mesh is provably deadlock-free with one VC — the detector must
// observe zero knots — while unrestricted minimal adaptive routing (TFAR)
// can still deadlock through turns. The turn-model algorithms
// (negative-first, and west-first on 2-D) restore freedom with partial
// adaptivity and must also show zero. This reproduces the theory context the
// paper builds on (Dally/Seitz; Glass & Ni's turn model, reference [2]).
func meshConfigs(o Options) []sim.Config {
	var cfgs []sim.Config
	for _, s := range []struct {
		mesh    bool
		routing string
	}{
		{false, "dor"}, {true, "dor"},
		{false, "tfar"}, {true, "tfar"},
		{true, "negative-first"}, {true, "west-first"},
	} {
		for _, load := range []float64{0.6, 1.0} {
			c := o.base()
			c.Mesh = s.mesh
			c.Routing = s.routing
			c.VCs = 1
			c.Load = load
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func meshTables(cfgs []sim.Config, pts []runner.Point) []*stats.Table {
	t := stats.NewTable("Supplementary: mesh vs torus (1 VC)",
		"topology", "routing", "load", "ndl", "deadlocks", "throughput", "pct_blocked")
	for i, p := range pts {
		topoName := "torus"
		if cfgs[i].Mesh {
			topoName = "mesh"
		}
		r := p.Result
		t.AddRow(topoName, cfgs[i].Routing, r.Load, r.NormalizedDeadlocks(),
			r.Deadlocks, r.Throughput(), 100*r.BlockedFraction())
	}
	t.AddNote("expected shape: mesh DOR, negative-first and west-first show exactly 0 deadlocks;")
	t.AddNote("torus DOR and both TFAR variants can deadlock")
	return []*stats.Table{t}
}
