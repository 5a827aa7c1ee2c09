// Command charsweep regenerates the paper's evaluation figures as tables.
//
//	charsweep -experiment fig5            # full-fidelity Fig. 5 sweep
//	charsweep -experiment all -quick      # everything, scaled down
//	charsweep -experiment fig7 -csv       # CSV output
//	charsweep -experiment fig5 -quick -cpuprofile cpu.out
//	charsweep -spec spec.json             # a specv1 spec, as PointResult JSONL
//
// Both modes run points the same way: a study's plan (-experiment) and a
// spec file (-spec) are both specv1 specs, run with the result store,
// /progress and the observability flags. -experiment then tabulates the
// results; -spec writes them in the sweep service's wire format.
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
	"flexsim/internal/experiments"
	"flexsim/internal/obs"
	"flexsim/internal/prof"
	"flexsim/internal/runner"
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
	opts.Instrumentation = inst // for approx and verify, which run themselves
	r := &runPath{ctx: ctx, parallel: sweep.Parallel, cache: cache, inst: inst, progress: obs.NewSweepProgress(ids)}
	if common.HTTPAddr != "" {
		srv, err := obs.Serve(common.HTTPAddr, obs.WithSweep(r.progress))
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "charsweep: serving /progress on http://%s\n", srv.Addr())
	}

	var interrupted bool
	if sweep.Spec != "" {
		code, interrupted = r.specFile(sweep)
	} else {
		code, interrupted = r.runExperiments(ids, opts, sweep)
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "charsweep: cache: %d hits, %d misses (%d run(s) now on disk)\n",
			cache.Hits(), cache.Misses(), cache.Len())
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			code = 1
		}
	}
	if interrupted {
		what := "re-run"
		if cache != nil {
			what = "re-run with -cache-dir " + cache.Dir()
		}
		fmt.Fprintf(os.Stderr, "charsweep: sweep interrupted; %s to resume from completed runs\n", what)
	}
	return code
}

// runPath is how charsweep runs points, in either mode: under the command's
// context, with its result store, its instrumentation and its /progress.
type runPath struct {
	ctx      context.Context
	parallel int
	cache    *runner.Cache
	inst     sim.Instrumentation
	progress *obs.SweepProgress
}

// run attaches the instrumentation to every point of spec, runs them, and
// reports them in the wire form. Instrumentation is not hashed: it changes
// no key and no result byte, and a point served from the store contributes
// nothing to it.
func (r *runPath) run(spec *specv1.Spec) ([]specv1.PointResult, error) {
	configs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	for i := range configs {
		configs[i].Instrumentation = r.inst
	}
	pts := runner.Map(r.ctx, configs, runner.Options{Parallelism: r.parallel, Cache: r.cache, OnDone: r.count})
	return specv1.PointResults(configs, pts)
}

// count feeds one settled point to /progress.
func (r *runPath) count(_ int, p runner.Point) {
	switch p.Status {
	case runner.Cached:
		r.progress.RunCached()
	case runner.Failed:
		r.progress.RunFailed()
	case runner.Cancelled:
		r.progress.RunCancelled()
	default:
		r.progress.RunDone()
	}
}

// runExperiments runs each experiment in ids and prints its tables. A study's
// plan goes through run and then its Tabulate; approx and verify, which
// are not sweeps, run themselves.
func (r *runPath) runExperiments(ids []string, opts experiments.Options, sweep *flags.Sweep) (code int, interrupted bool) {
	for _, id := range ids {
		f, err := experiments.ByName(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1, interrupted
		}
		if r.ctx.Err() != nil {
			// The sweep was cancelled; mark the remaining experiments
			// rather than starting them.
			r.progress.Cancel(id)
			interrupted = true
			continue
		}
		start := time.Now()
		r.progress.Start(id)
		var tables []*stats.Table
		if study, serr := experiments.StudyByName(id); serr == nil {
			tables, err = r.tabulate(study, opts)
		} else {
			tables, err = f(opts)
		}
		if err != nil {
			if r.ctx.Err() != nil {
				r.progress.Cancel(id)
				fmt.Fprintf(os.Stderr, "charsweep: %s interrupted after %v\n",
					id, time.Since(start).Round(time.Millisecond))
				interrupted = true
				continue
			}
			r.progress.Fail(id)
			fmt.Fprintf(os.Stderr, "charsweep: %s: %v\n", id, err)
			return 1, interrupted
		}
		r.progress.Finish(id, time.Since(start))
		if err := printTables(tables, sweep); err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1, interrupted
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0, interrupted
}

// tabulate runs a study's plan and builds its tables from the results; a
// cancelled run is reported as the context's error, not tabulated.
func (r *runPath) tabulate(study *experiments.Study, opts experiments.Options) ([]*stats.Table, error) {
	spec := study.Plan(opts)
	results, err := r.run(spec)
	if err == nil {
		err = r.ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return study.Tabulate(spec, results)
}

// printTables writes an experiment's tables to stdout: aligned text, each
// table followed by its ASCII plot under -plot, or CSV under -csv.
func printTables(tables []*stats.Table, sweep *flags.Sweep) error {
	for _, t := range tables {
		if sweep.CSV {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return err
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
	return nil
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

// specFile runs a specv1 spec file (- = stdin) and writes the sweep
// service's wire format, PointResult JSONL. With -cache-dir pointed at a
// sweep service's shared store, every point already completed there is
// served from it and the emitted result bytes are byte-identical to the
// service's results for the same spec.
func (r *runPath) specFile(sweep *flags.Sweep) (code int, interrupted bool) {
	spec, err := readSpec(sweep.Spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1, false
	}
	r.progress.Start(spec.Name)
	start := time.Now()
	results, err := r.run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1, false
	}
	out := io.Writer(os.Stdout)
	if sweep.ResultsOut != "" {
		f, err := os.Create(sweep.ResultsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "charsweep:", err)
			return 1, false
		}
		defer f.Close()
		out = f
	}
	if err := specv1.WriteResults(out, results); err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1, false
	}

	n := map[specv1.Status]int{}
	for _, pr := range results {
		n[pr.Status]++
	}
	failed, cancelled := n[specv1.StatusFailed], n[specv1.StatusCancelled]
	fmt.Fprintf(os.Stderr, "charsweep: spec %s: %d point(s) — %d done, %d cached, %d failed, %d cancelled in %v\n",
		spec.Name, len(results), n[specv1.StatusDone], n[specv1.StatusCached], failed, cancelled, time.Since(start).Round(time.Millisecond))
	switch {
	case cancelled > 0:
		r.progress.Cancel(spec.Name)
	case failed > 0:
		r.progress.Fail(spec.Name)
	default:
		r.progress.Finish(spec.Name, time.Since(start))
	}
	if failed > 0 {
		return 1, false
	}
	return 0, cancelled > 0
}

// readSpec decodes the spec file at path (- = stdin).
func readSpec(path string) (*specv1.Spec, error) {
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return specv1.DecodeSpec(in)
}
