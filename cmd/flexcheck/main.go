// Command flexcheck model-checks the deadlock detector: it enumerates every
// reachable state of tiny configurations (bounded-exhaustive, symmetry
// reduced), computes ground-truth message liveness by dynamic programming
// over the explored transition system, runs the REAL detection pipeline
// (network restore -> detect -> cwg knot analysis) on each state, and
// reports any soundness or completeness divergence with a minimized,
// replayable counterexample. With zero divergences (the expected outcome)
// it still emits one minimized true-deadlock exemplar per configuration
// that reaches one.
//
//	flexcheck -grid short -out results/flexcheck_short.json
//	flexcheck -grid full -repro-dir results/repros
//	flexcheck -grid custom -topo ring-uni -k 3 -vcs 1 -routing dor -messages 3
//
// The exit status is 0 when the grid verifies, 1 on divergences, 2 on
// usage or checker errors; a configuration flag (-topo, -k, ...) without
// -grid custom is a usage error. Repro files round-trip through flexsim -repro.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/modelcheck"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	grid := fs.String("grid", "short", "configuration grid: short, full, or custom (use -topo/-k/...)")
	topo := fs.String("topo", "ring-uni", "custom grid: topology (ring-uni, ring-bi, line)")
	k := fs.Int("k", 3, "custom grid: node count")
	vcs := fs.Int("vcs", 1, "custom grid: virtual channels per physical channel")
	routingName := fs.String("routing", "dor", "custom grid: routing relation")
	messages := fs.Int("messages", 3, "custom grid: message count")
	msgLen := fs.Int("msg-len", 2, "custom grid: flits per message")
	bufDepth := fs.Int("buf", 1, "custom grid: edge buffer depth (flits)")
	maxStates := fs.Int("max-states", 0, "per-configuration state cap (0 = default 150000)")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	reproDir := fs.String("repro-dir", "", "write divergence/exemplar repro files into this directory")
	quiet := fs.Bool("q", false, "suppress per-configuration progress lines")
	fs.Parse(os.Args[1:])

	var configs []modelcheck.Config
	switch *grid {
	case "short":
		configs = modelcheck.ShortGrid()
	case "full":
		configs = modelcheck.FullGrid()
	case "custom":
		configs = []modelcheck.Config{{
			Topology: *topo, K: *k, VCs: *vcs, Routing: *routingName,
			Messages: *messages, MsgLen: *msgLen, BufferDepth: *bufDepth,
		}}
	default:
		fmt.Fprintf(os.Stderr, "flexcheck: unknown grid %q (short|full|custom)\n", *grid)
		return 2
	}
	custom := flags.Names("topo", "k", "vcs", "routing", "messages", "msg-len", "buf")
	if name := flags.Owned(fs, custom); name != "" && *grid != "custom" {
		fmt.Fprintf(os.Stderr, "flexcheck: -%s describes the -grid custom configuration; -grid %s does not read it\n", name, *grid)
		return 2
	}

	var progress modelcheck.Progress
	if !*quiet {
		progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := modelcheck.RunGrid(context.Background(), *grid, configs, modelcheck.Options{MaxStates: *maxStates}, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexcheck:", err)
		return 2
	}

	if *reproDir != "" {
		if err := writeRepros(*reproDir, rep); err != nil {
			fmt.Fprintln(os.Stderr, "flexcheck:", err)
			return 2
		}
	}

	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "flexcheck:", err)
		return 2
	}

	fmt.Fprintf(os.Stderr,
		"flexcheck: %d configs, %d states, %d edges in %.1fs — %d soundness, %d completeness divergences\n",
		len(rep.Configs), rep.TotalStates, rep.TotalEdges, float64(rep.WallMS)/1000,
		rep.SoundnessDivergences, rep.CompletenessDivergences)
	if rep.SoundnessDivergences+rep.CompletenessDivergences > 0 {
		return 1
	}
	return 0
}

// writeReport writes the JSON report to the file at path, or to stdout when
// path is empty; a file that does not close cleanly is an error.
func writeReport(path string, rep *modelcheck.Report) error {
	if path == "" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeRepros dumps every divergence counterexample and exemplar into dir.
func writeRepros(dir string, rep *modelcheck.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, c := range rep.Configs {
		for i, d := range c.Divergences {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", c.Config.Name(), d.Kind, i))
			if err := d.Repro.WriteFile(path); err != nil {
				return err
			}
			n++
		}
		if c.Exemplar != nil {
			path := filepath.Join(dir, fmt.Sprintf("%s-exemplar.json", c.Config.Name()))
			if err := c.Exemplar.WriteFile(path); err != nil {
				return err
			}
			n++
		}
	}
	fmt.Fprintf(os.Stderr, "flexcheck: wrote %d repro files to %s\n", n, dir)
	return nil
}
