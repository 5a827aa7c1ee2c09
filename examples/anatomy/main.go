// Anatomy: reconstructs the paper's Figures 1-4 as channel wait-for graphs
// and runs true deadlock detection on each, demonstrating the full taxonomy:
// single-cycle deadlocks (static and adaptivity-exhausted), multi-cycle
// deadlocks, cyclic non-deadlocks, and dependent messages. Pass -dot to also
// emit Graphviz sources, or -spans-out to additionally run a small live
// deadlocking simulation and export its Perfetto trace (message lifecycle
// spans + detector passes, loadable in ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"os"

	"flexsim/internal/cwg"
	"flexsim/internal/sim"
)

func main() {
	dot := flag.Bool("dot", false, "also print Graphviz DOT for each scenario")
	spansOut := flag.String("spans-out", "", "run a live deadlocking sim and write its Perfetto trace here")
	flag.Parse()

	scenarios := []struct {
		name string
		blur string
		msgs []cwg.Msg
	}{
		{
			name: "Figure 1: single-cycle deadlock (DOR, 1 VC)",
			blur: "three messages hold chains around a ring and wait on each other;\ntwo more have acquired all they need and drain harmlessly",
			msgs: cwg.PaperFig1(),
		},
		{
			name: "Figure 2: single-cycle deadlock (minimal adaptive, 1 VC)",
			blur: "four messages with exhausted adaptivity wait in a ring;\nmessage 5 is dependent: blocked on the knot but not part of it",
			msgs: cwg.PaperFig2(),
		},
		{
			name: "Figure 3: multi-cycle deadlock (minimal adaptive, 2 VCs)",
			blur: "eight messages, sixteen VCs, overlapping cycles woven into one knot",
			msgs: cwg.PaperFig3(),
		},
		{
			name: "Figure 4: cyclic non-deadlock (minimal adaptive, 2 VCs)",
			blur: "same as Figure 3 but message 3 can proceed: cycles remain,\nyet no knot exists - cycles are necessary but not sufficient",
			msgs: cwg.PaperFig4(),
		},
	}

	mg := cwg.NewMsgGraph(0)
	for _, s := range scenarios {
		fmt.Printf("=== %s ===\n%s\n", s.name, s.blur)
		mg.Build(s.msgs)
		an := mg.Analyze(cwg.Options{CountKnotCycles: true})
		cycles, _ := mg.CountCycles(cwg.Options{})
		g := cwg.Build(s.msgs) // drawn: its size, and with -dot its DOT
		fmt.Printf("graph: %d VCs, %d arcs; %d blocked messages; %d resource dependency cycles\n",
			g.NumVertices(), g.NumEdges(), an.BlockedMessages, cycles)
		if len(an.Deadlocks) == 0 {
			fmt.Println("verdict: NO deadlock (no knot in the CWG)")
		}
		for _, d := range an.Deadlocks {
			fmt.Printf("verdict: DEADLOCK (%s)\n", d.Kind)
			fmt.Printf("  knot:               %d VCs %v\n", len(d.KnotVCs), d.KnotVCs)
			fmt.Printf("  deadlock set:       %d messages %v\n", len(d.DeadlockSet), d.DeadlockSet)
			fmt.Printf("  resource set:       %d VCs %v\n", len(d.ResourceSet), d.ResourceSet)
			fmt.Printf("  knot cycle density: %d cycle(s)\n", d.KnotCycles)
			fmt.Printf("  dependent messages: %v (must NOT be chosen as recovery victims)\n", d.Dependent)
		}
		if *dot {
			fmt.Println(g.DOT(nil))
		}
		fmt.Println()
	}

	if *spansOut != "" {
		// The deterministic saturating quick configuration — the same shape
		// the figures dissect statically, but live — exported whole as a
		// Chrome trace-event file: one track per message (queued / active /
		// blocked / recovery-drain spans) plus the detector-pass track.
		c := sim.Quick()
		c.Load = 1.0 // past saturation: deadlocks form, victims drain
		c.SpansPath = *spansOut
		res, err := sim.Run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anatomy:", err)
			os.Exit(1)
		}
		fmt.Printf("=== Live run ===\nwrote Perfetto trace to %s (%d deadlocks over %d cycles; load in ui.perfetto.dev)\n",
			*spansOut, res.Deadlocks, res.Cycles)
	}
}
