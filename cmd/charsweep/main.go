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
	"os"
	"strings"
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

// cli holds the flags only charsweep reads.
type cli struct {
	experiment string
	spec       string
	resultsOut string
	csv        bool
	plot       bool
	parallel   int
}

// bindCLI registers charsweep's own flags on fs.
func bindCLI(fs *flag.FlagSet) *cli {
	c := &cli{}
	fs.StringVar(&c.experiment, "experiment", "all", "experiment id ("+strings.Join(experiments.Names(), "|")+"|all)")
	fs.StringVar(&c.spec, "spec", "", "run this specv1 sweep spec file (- = stdin) instead of -experiment, emitting specv1 PointResult JSONL (the same wire format the sweep service serves)")
	fs.StringVar(&c.resultsOut, "results-out", "", "write the -spec run's PointResult JSONL to this file (default stdout)")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of aligned text")
	fs.BoolVar(&c.plot, "plot", false, "render ASCII plots (first numeric column as x, log-y) after each table")
	fs.IntVar(&c.parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	return c
}

// conflict says why a flag set on fs cannot be honoured in the mode the
// flags select, or returns "". A spec file owns what each point simulates and
// is answered with PointResult JSONL; -experiment answers with tables.
func (c *cli) conflict(fs *flag.FlagSet) string {
	if c.spec == "" {
		if c.resultsOut != "" {
			return "-results-out needs -spec: -experiment prints tables, not PointResult JSONL"
		}
		return ""
	}
	plan := func(fs *flag.FlagSet) { flags.BindPlan(fs); fs.String("experiment", "", "") }
	if name := flags.Owned(fs, plan); name != "" {
		return "-" + name + " cannot be combined with -spec: the spec file owns what each point simulates"
	}
	if name := flags.Owned(fs, flags.Names("csv", "plot")); name != "" {
		return "-" + name + " cannot be combined with -spec: a spec run writes PointResult JSONL, not tables"
	}
	return ""
}

func run() (code int) {
	plan := flags.BindPlan(flag.CommandLine)
	common := flags.BindCommon(flag.CommandLine)
	sweep := bindCLI(flag.CommandLine)
	flag.Parse()
	if why := sweep.conflict(flag.CommandLine); why != "" {
		fmt.Fprintln(os.Stderr, "charsweep:", why)
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

	opts, err := plan.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "charsweep:", err)
		return 1
	}

	ids := []string{sweep.experiment}
	if sweep.experiment == "all" {
		ids = experiments.Names()
	}
	if sweep.spec != "" {
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
	r := &runPath{ctx: ctx, parallel: sweep.parallel, cache: cache, inst: inst, progress: obs.NewSweepProgress(ids)}
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
	if sweep.spec != "" {
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
	count := func(_ int, p runner.Point) { r.progress.Settled(string(p.Status)) }
	pts := runner.Map(r.ctx, configs, runner.Options{Parallelism: r.parallel, Cache: r.cache, OnDone: count})
	return specv1.PointResults(configs, pts)
}

// runExperiments runs each experiment in ids and prints its tables. A study's
// plan goes through run and then its Tabulate; approx and verify, which
// are not sweeps, run themselves.
func (r *runPath) runExperiments(ids []string, opts experiments.Options, sweep *cli) (code int, interrupted bool) {
	for _, id := range ids {
		study, err := experiments.StudyByName(id)
		var f experiments.Func
		if err != nil {
			f, err = experiments.ByName(id)
		}
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
		if study != nil {
			tables, err = r.tabulate(study, opts)
		} else {
			tables, err = f(r.ctx, opts)
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
func printTables(tables []*stats.Table, sweep *cli) error {
	for _, t := range tables {
		if sweep.csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return err
		}
		if sweep.plot {
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

// specFile runs a specv1 spec file (- = stdin) and writes the sweep
// service's wire format, PointResult JSONL. With -cache-dir pointed at a
// sweep service's shared store, every point already completed there is
// served from it and the emitted result bytes are byte-identical to the
// service's results for the same spec.
func (r *runPath) specFile(sweep *cli) (code int, interrupted bool) {
	spec, err := flags.ReadSpec(sweep.spec)
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
	if err := writeResults(sweep.resultsOut, results); err != nil {
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

// writeResults writes results as JSONL to the file at path, or to stdout
// when path is empty; a file that does not close cleanly is an error.
func writeResults(path string, results []specv1.PointResult) error {
	if path == "" {
		return specv1.WriteResults(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = specv1.WriteResults(f, results)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
