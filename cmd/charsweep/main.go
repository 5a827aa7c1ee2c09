// Command charsweep regenerates the paper's evaluation figures as tables.
//
//	charsweep -experiment fig5            # full-fidelity Fig. 5 sweep
//	charsweep -experiment all -quick      # everything, scaled down
//	charsweep -experiment fig7 -csv       # CSV output
//	charsweep -experiment fig5 -quick -cpuprofile cpu.out
//
// Sweeps are long batch jobs, so execution is resilient: SIGINT/SIGTERM or
// -timeout cancels in-flight simulations within one detector period and
// exits cleanly with the tables completed so far, and -cache-dir persists
// every finished run so the next invocation (-resume, the default) skips
// straight past them:
//
//	charsweep -experiment all -cache-dir sweep.cache     # interrupt freely
//	charsweep -experiment all -cache-dir sweep.cache     # resumes, skipping done runs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/experiments"
	"flexsim/internal/obs"
	"flexsim/internal/prof"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	sweep := flags.BindSweep(flag.CommandLine)
	common := flags.BindCommon(flag.CommandLine)
	flag.Parse()
	if name := specOwned(sweep); name != "" {
		fmt.Fprintf(os.Stderr, "charsweep: -%s cannot be combined with -spec: the spec file owns what each point simulates\n", name)
		return 2
	}

	ctx, cancel := flags.SignalContext(common.Timeout)
	defer cancel()

	stopProf, err := prof.Start(common.CPUProfile, common.MemProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
		}
	}()

	opts, err := sweep.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}
	opts.Context = ctx

	ids := []string{sweep.Experiment}
	if sweep.Experiment == "all" {
		ids = experiments.Names()
	}
	if sweep.Spec != "" {
		ids = nil // the spec's own name labels /progress
	}

	cache, err := common.OpenCache()
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}
	if cache != nil {
		opts.Cache = cache
		fmt.Fprintf(os.Stderr, "charsweep: result cache %s (%d completed run(s) on disk)\n",
			cache.Dir(), cache.Len())
	}

	inst, finish, err := common.Instrumentation(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}
	defer func() {
		if err := finish(); err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			code = 1
		}
	}()
	opts.Instrumentation = inst
	var progress *obs.SweepProgress
	if common.HTTPAddr != "" {
		progress = obs.NewSweepProgress(ids)
		opts.OnPoint = func(p core.Point) { countPoint(progress, p) }
		srv, err := obs.Serve(common.HTTPAddr, obs.WithSweep(progress))
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "charsweep: serving /progress on http://%s\n", srv.Addr())
	}

	interrupted := false
	if sweep.Spec != "" {
		code := runSpecFile(ctx, sweep, inst, cache, progress)
		if cache != nil {
			fmt.Fprintf(os.Stderr, "charsweep: cache: %d hits, %d misses (%d run(s) now on disk)\n",
				cache.Hits(), cache.Misses(), cache.Len())
			if err := cache.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "charsweep:", err)
				return 1
			}
		}
		return code
	}
	for _, id := range ids {
		f, err := experiments.ByName(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1
		}
		if ctx.Err() != nil {
			// The sweep was cancelled; mark the remaining experiments
			// rather than starting them.
			if progress != nil {
				progress.Cancel(id)
			}
			interrupted = true
			continue
		}
		start := time.Now()
		if progress != nil {
			progress.Start(id)
		}
		tables, err := f(opts)
		if err != nil {
			if ctx.Err() != nil {
				if progress != nil {
					progress.Cancel(id)
				}
				fmt.Fprintf(os.Stderr, "charsweep: %s interrupted after %v\n",
					id, time.Since(start).Round(time.Millisecond))
				interrupted = true
				continue
			}
			if progress != nil {
				progress.Fail(id)
			}
			fmt.Fprintf(os.Stderr, "charsweep: %s: %v\n", id, err)
			return 1
		}
		if progress != nil {
			progress.Finish(id, time.Since(start))
		}
		for _, t := range tables {
			if sweep.CSV {
				if err := t.WriteCSV(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, "charsweep:", err)
					return 1
				}
				fmt.Println()
				continue
			}
			if err := t.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "charsweep:", err)
				return 1
			}
			if sweep.Plot {
				if cols := t.NumericColumns(); len(cols) >= 2 {
					p, err := stats.PlotTable(t, cols[0], cols[1:], true)
					if err == nil {
						fmt.Println(p.Render())
					}
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "charsweep: cache: %d hits, %d misses (%d run(s) now on disk)\n",
			cache.Hits(), cache.Misses(), cache.Len())
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1
		}
	}
	if interrupted {
		what := "re-run"
		if cache != nil {
			what = "re-run with -cache-dir " + cache.Dir()
		}
		fmt.Fprintf(os.Stderr, "charsweep: sweep interrupted; %s to resume from completed runs\n", what)
	}
	return 0
}

// countPoint feeds one settled point to the live /progress view.
func countPoint(progress *obs.SweepProgress, p core.Point) {
	switch p.Status {
	case core.StatusCached:
		progress.RunCached()
	case core.StatusFailed:
		progress.RunFailed()
	case core.StatusCancelled:
		progress.RunCancelled()
	default:
		progress.RunDone()
	}
}

// specOwned names the first flag set on the command line that -spec cannot
// honour: a spec file fixes every point's physics (seeds, loads, windows,
// fault schedule), so a flag that would change it — which -experiment mode
// folds into the configurations it builds — is refused instead of being
// silently dropped. It returns "" without -spec or when none is set.
func specOwned(sweep *flags.Sweep) string {
	if sweep.Spec == "" {
		return ""
	}
	owned := map[string]bool{
		"experiment": true, "quick": true, "seed": true, "loads": true,
		"fault-link-mttf": true, "fault-repair": true, "fault-seed": true, "fault-schedule": true,
	}
	var name string
	flag.Visit(func(f *flag.Flag) {
		if name == "" && owned[f.Name] && f.Value.String() != f.DefValue {
			name = f.Name
		}
	})
	return name
}

// runSpecFile executes a specv1 sweep spec with the local runner and emits
// the sweep service's wire format (PointResult JSONL). With -cache-dir
// pointed at a sweep service's shared store, every point already completed
// there is served from it and the emitted result bytes are byte-identical
// to the service's results for the same spec. inst is attached to every
// point; it is not hashed, so it changes no key and no result byte.
func runSpecFile(ctx context.Context, sweep *flags.Sweep, inst sim.Instrumentation, cache *core.Cache, progress *obs.SweepProgress) int {
	in := io.Reader(os.Stdin)
	if sweep.Spec != "-" {
		f, err := os.Open(sweep.Spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	spec, err := specv1.DecodeSpec(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}

	copts := []core.Option{core.WithParallelism(sweep.Parallel)}
	if cache != nil {
		copts = append(copts, core.WithCache(cache))
	}
	if progress != nil {
		progress.Start(spec.Name)
		copts = append(copts, core.WithOnDone(func(_ int, p core.Point) { countPoint(progress, p) }))
	}

	start := time.Now()
	configs, err := spec.Configs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}
	for i := range configs {
		configs[i].Instrumentation = inst
	}
	results, err := core.PointResults(configs, core.RunAll(ctx, configs, copts...))
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}
	out := io.Writer(os.Stdout)
	if sweep.ResultsOut != "" {
		f, err := os.Create(sweep.ResultsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	if err := specv1.WriteResults(out, results); err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}

	var done, cached, failed, cancelled int
	for _, pr := range results {
		switch pr.Status {
		case specv1.StatusCached:
			cached++
		case specv1.StatusFailed:
			failed++
		case specv1.StatusCancelled:
			cancelled++
		default:
			done++
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	fmt.Fprintf(os.Stderr, "charsweep: spec %s: %d point(s) — %d done, %d cached, %d failed, %d cancelled in %v\n",
		spec.Name, len(results), done, cached, failed, cancelled, elapsed)
	if progress != nil {
		switch {
		case cancelled > 0:
			progress.Cancel(spec.Name)
		case failed > 0:
			progress.Fail(spec.Name)
		default:
			progress.Finish(spec.Name, time.Since(start))
		}
	}
	if failed > 0 {
		return 1
	}
	if cancelled > 0 {
		fmt.Fprintf(os.Stderr, "charsweep: spec interrupted; re-run to resume from completed runs\n")
	}
	return 0
}
