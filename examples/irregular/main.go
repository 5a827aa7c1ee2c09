// Irregular: deadlock characterization on irregular switch networks (the
// paper's future-work topology, typical of networks of workstations).
// Builds random connected switch graphs of increasing link density and
// contrasts unrestricted minimal adaptive routing with recovery against
// Autonet-style up*/down* avoidance routing — then prints the first
// adaptive-routing deadlock's anatomy.
package main

import (
	"context"
	"fmt"
	"os"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

func main() {
	table := stats.Table{
		Title: "irregular 32-switch networks at load 1.0",
		Headers: []string{"routing", "extra_links", "deadlocks", "ndl",
			"throughput", "latency"},
	}
	var cfgs []sim.Config
	type meta struct {
		alg   string
		extra int
	}
	var metas []meta
	for _, alg := range []string{"min-adaptive", "updown"} {
		for _, extra := range []int{6, 16, 32} {
			cfg := sim.Quick()
			cfg.IrregularNodes = 32
			cfg.IrregularLinks = extra
			cfg.Routing = alg
			cfg.VCs = 1
			cfg.Load = 1.0
			cfgs = append(cfgs, cfg)
			metas = append(metas, meta{alg, extra})
		}
	}
	points := runner.Map(context.Background(), cfgs, runner.Options{})
	if err := runner.FirstError(points); err != nil {
		fmt.Fprintln(os.Stderr, "irregular:", err)
		os.Exit(1)
	}
	for i, p := range points {
		r := p.Result
		table.AddRow(metas[i].alg, metas[i].extra, r.Deadlocks, r.NormalizedDeadlocks(),
			r.Throughput(), r.MeanLatency())
	}
	table.AddNote("up*/down* orientation makes knots impossible; unrestricted routing relies on detection + recovery")
	if err := table.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "irregular:", err)
		os.Exit(1)
	}

	// Hunt down one real deadlock and dissect it.
	cfg := sim.Quick()
	cfg.IrregularNodes = 32
	cfg.IrregularLinks = 8
	cfg.Routing = "min-adaptive"
	cfg.VCs = 1
	cfg.Load = 1.2
	cfg.Recover = false
	cfg.WarmupCycles = 0
	for seed := uint64(1); seed <= 20; seed++ {
		cfg.Seed = seed
		r, err := sim.NewRunner(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irregular:", err)
			os.Exit(1)
		}
		for cycle := 0; cycle < 20000; cycle++ {
			r.StepCycle()
			if r.Net.Now()%50 != 0 {
				continue
			}
			g := cwg.Build(r.Detector.Snapshot())
			an := g.Analyze(cwg.Options{CountKnotCycles: true})
			if len(an.Deadlocks) == 0 {
				continue
			}
			d := an.Deadlocks[0]
			fmt.Printf("\nfirst deadlock (seed %d, cycle %d): %s\n", seed, r.Net.Now(), d.Kind)
			fmt.Printf("  deadlock set: %d messages %v\n", len(d.DeadlockSet), d.DeadlockSet)
			fmt.Printf("  resource set: %d VCs; knot: %d VCs; density %d; %d dependent\n",
				len(d.ResourceSet), len(d.KnotVCs), d.KnotCycles, len(d.Dependent))
			fmt.Println("  knot channels:")
			for _, vc := range d.KnotVCs {
				owner := "?"
				if id, ok := g.OwnerOf(vc); ok {
					owner = fmt.Sprintf("msg %d", id)
				}
				fmt.Printf("    %-22s held by %s\n", r.Net.VCString(message.VC(vc)), owner)
			}
			return
		}
	}
	fmt.Println("\nno deadlock observed on these seeds (try more seeds or fewer links)")
}
