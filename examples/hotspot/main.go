// Hotspot: drives the network with non-uniform traffic (Sec. 3.6 of the
// paper) and inspects how deadlock frequency and structure respond. It runs
// hot-spot traffic at increasing hot fractions and contrasts a permutation
// pattern (bit-reversal) whose source/destination pairs cannot circularly
// overlap under DOR, reproducing the paper's observation that most
// non-uniform patterns behave within ~10% of uniform — except where the
// pattern removes the overlap deadlock needs.
package main

import (
	"context"
	"fmt"
	"os"

	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

func main() {
	base := sim.Quick()
	base.Routing = "dor"
	base.VCs = 1
	base.Load = 0.9

	table := stats.Table{
		Title: "non-uniform traffic under DOR1 at load 0.9",
		Headers: []string{"pattern", "deadlocks", "ndl", "mean_dlset",
			"throughput", "pct_blocked"},
	}

	var cfgs []sim.Config
	labels := []string{}
	add := func(label, pattern string, frac float64) {
		c := base
		c.Traffic = pattern
		c.HotspotFrac = frac
		c.Label = label
		cfgs = append(cfgs, c)
		labels = append(labels, label)
	}
	add("uniform", "uniform", 0)
	add("hotspot 5%", "hotspot", 0.05)
	add("hotspot 10%", "hotspot", 0.10)
	add("hotspot 20%", "hotspot", 0.20)
	add("transpose", "transpose", 0)
	add("bit-reversal", "bitrev", 0)
	add("perfect-shuffle", "shuffle", 0)
	add("tornado", "tornado", 0)

	points := runner.Map(context.Background(), cfgs, runner.Options{})
	if err := runner.FirstError(points); err != nil {
		fmt.Fprintln(os.Stderr, "hotspot:", err)
		os.Exit(1)
	}
	for i, p := range points {
		r := p.Result
		table.AddRow(labels[i], r.Deadlocks, r.NormalizedDeadlocks(), r.MeanDeadlockSet(),
			r.Throughput(), 100*r.BlockedFraction())
	}
	table.AddNote("permutations that break circular overlap suppress DOR deadlocks; randomized patterns track uniform")
	if err := table.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hotspot:", err)
		os.Exit(1)
	}
}
