// Quickstart: run one simulation with true deadlock detection and print the
// paper's headline metric — normalized deadlocks — for dimension-order
// routing on a small torus, then sweep the offered load to see deadlock
// frequency grow through saturation.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

func main() {
	// One run: 8-ary 2-cube, DOR, one virtual channel — the paper's most
	// deadlock-prone bidirectional configuration.
	cfg := sim.Quick()
	cfg.Routing = "dor"
	cfg.VCs = 1
	cfg.Load = 0.8

	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Printf("single run: %s\n", res)
	fmt.Printf("  %d deadlocks over %d delivered messages -> %.4f normalized deadlocks\n",
		res.Deadlocks, res.Delivered, res.NormalizedDeadlocks())
	fmt.Printf("  mean deadlock set %.1f messages, mean resource set %.1f VCs, all %s\n\n",
		res.MeanDeadlockSet(), res.MeanResourceSet(), kind(res))

	// Load sweep, in parallel: deadlocks are rare below saturation and
	// frequent beyond it. The sweep API is context-first — Ctrl-C stops
	// in-flight runs within one detector period instead of killing the
	// process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	loads := specv1.Loads(0.2, 1.2, 0.2)
	points := runner.Map(ctx, specv1.ExpandLoads(cfg, loads), runner.Options{})
	if err := runner.FirstError(points); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	table := stats.Table{
		Title:   "DOR, 1 VC: deadlocks vs offered load",
		Headers: []string{"load", "normalized_deadlocks", "throughput", "saturated"},
	}
	for _, p := range points {
		table.AddRow(p.Load, p.Result.NormalizedDeadlocks(), p.Result.Throughput(), p.Result.Saturated)
	}
	if err := table.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Printf("saturation begins at load %.2g\n", runner.SaturationLoad(points))
}

func kind(res *stats.Result) string {
	if res.MultiCycle == 0 {
		return "single-cycle"
	}
	return "mixed single/multi-cycle"
}
