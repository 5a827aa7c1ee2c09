// Command sweepctl is the sweep service client.
//
//	sweepctl mkspec -experiment fig5 -quick > spec.json   # a study's plan
//	sweepctl submit -f spec.json                          # fire and forget
//	sweepctl submit -f spec.json -watch                   # follow to completion
//	sweepctl list                                         # all sweeps
//	sweepctl status s1-ab12cd34                           # one sweep's progress
//	sweepctl watch s1-ab12cd34                            # live SSE stream
//	sweepctl results s1-ab12cd34 > results.jsonl          # specv1 PointResult JSONL
//	sweepctl health                                       # coordinator liveness
//
// Every command takes -server (default http://127.0.0.1:8600). Specs and
// results are strict specv1 JSON, so a spec built here runs identically on
// the service and on a local charsweep -spec run — and, through a shared
// -store directory, yields byte-identical result payloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/experiments"
	"flexsim/internal/sweepsvc"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage: sweepctl <command> [flags]

commands:
  submit   submit a sweep spec (-f file, - = stdin; -watch follows it)
  status   print one sweep's progress
  results  print a sweep's results as specv1 JSONL
  watch    stream a sweep's events until it settles
  list     print every sweep's status
  mkspec   print the specv1 spec a study plans
  health   check the coordinator's /healthz

run "sweepctl <command> -h" for the command's flags`)
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(rest)
	case "status":
		err = cmdStatus(rest)
	case "results":
		err = cmdResults(rest)
	case "watch":
		err = cmdWatch(rest)
	case "list":
		err = cmdList(rest)
	case "mkspec":
		err = cmdMkspec(rest)
	case "health":
		err = cmdHealth(rest)
	case "-h", "-help", "--help", "help":
		return usage()
	default:
		fmt.Fprintf(os.Stderr, "sweepctl: unknown command %q\n", cmd)
		return usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepctl:", err)
		return 1
	}
	return 0
}

// bindClient registers the shared -server flag.
func bindClient(fs *flag.FlagSet) *string {
	return fs.String("server", "http://127.0.0.1:8600", "sweep coordinator base URL")
}

func client(server string) *sweepsvc.Client {
	return &sweepsvc.Client{Base: server}
}

// summary renders one sweep's status as a single line. "misses" counts the
// points not served from the shared store — an identical resubmission of a
// completed sweep reports 0 misses.
func summary(st *specv1.SweepStatus) string {
	line := fmt.Sprintf("sweep %s [%s] %s: %d/%d settled — %d done, %d cached, %d failed, %d retries, %d misses",
		st.ID, st.Name, st.State, st.Settled(), st.Total,
		st.Done, st.Cached, st.Failed, st.Retries, st.Total-st.Cached)
	if st.Running > 0 || st.Pending > 0 {
		line += fmt.Sprintf(" (%d running, %d pending)", st.Running, st.Pending)
	}
	if len(st.RetryCauses) > 0 {
		causes := make([]string, 0, len(st.RetryCauses))
		for c := range st.RetryCauses {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		parts := make([]string, len(causes))
		for i, c := range causes {
			parts[i] = fmt.Sprintf("%s:%d", c, st.RetryCauses[c])
		}
		line += " [retries " + strings.Join(parts, " ") + "]"
	}
	if st.Stolen > 0 {
		line += fmt.Sprintf(" [%d stolen]", st.Stolen)
	}
	return line
}

// failExit reports failed points as an error so the process exits non-zero.
func failExit(st *specv1.SweepStatus) error {
	if st.Failed > 0 {
		return fmt.Errorf("sweep %s: %d point(s) failed", st.ID, st.Failed)
	}
	return nil
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := bindClient(fs)
	file := fs.String("f", "-", "sweep spec file (specv1 JSON; - = stdin)")
	watch := fs.Bool("watch", false, "follow the sweep's event stream until it settles")
	asJSON := fs.Bool("json", false, "with -watch: print raw specv1 event JSON, one object per line")
	fs.Parse(args)

	in := io.Reader(os.Stdin)
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	spec, err := specv1.DecodeSpec(in)
	if err != nil {
		return err
	}
	c := client(*server)
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Println(summary(st))
	if !*watch {
		return nil
	}
	if st.State != specv1.SweepDone {
		if err := watchSweep(ctx, c, st.ID, *asJSON); err != nil {
			return err
		}
	}
	if st, err = c.Status(ctx, st.ID); err != nil {
		return err
	}
	fmt.Println(summary(st))
	return failExit(st)
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := bindClient(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl status [-server URL] <sweep-id>")
	}
	st, err := client(*server).Status(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Println(summary(st))
	return nil
}

func cmdResults(args []string) error {
	fs := flag.NewFlagSet("results", flag.ExitOnError)
	server := bindClient(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl results [-server URL] <sweep-id>")
	}
	results, err := client(*server).Results(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	return specv1.WriteResults(os.Stdout, results)
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := bindClient(fs)
	asJSON := fs.Bool("json", false, "print raw specv1 event JSON, one object per line")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl watch [-server URL] [-json] <sweep-id>")
	}
	c := client(*server)
	ctx := context.Background()
	if err := watchSweep(ctx, c, fs.Arg(0), *asJSON); err != nil {
		return err
	}
	st, err := c.Status(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	return failExit(st)
}

// watchSweep follows one sweep's SSE stream, printing point settlements,
// retries and steals (with their cause), and the final summary; it returns
// when the terminal done event arrives. With asJSON the raw specv1 event
// objects are printed one per line instead.
func watchSweep(ctx context.Context, c *sweepsvc.Client, id string, asJSON bool) error {
	enc := json.NewEncoder(os.Stdout)
	return c.Watch(ctx, id, func(ev *specv1.Event) error {
		if asJSON {
			return enc.Encode(ev)
		}
		switch ev.Type {
		case "point":
			if p := ev.Point; p != nil {
				line := fmt.Sprintf("  point %d load %.3g %s", p.Index, p.Load, p.Status)
				if p.Worker != "" {
					line += " on " + p.Worker
				}
				if p.Attempts > 1 {
					line += fmt.Sprintf(" (attempt %d)", p.Attempts)
				}
				if p.Error != "" {
					line += ": " + p.Error
				}
				fmt.Println(line)
			}
		case "retry":
			if p := ev.Point; p != nil {
				fmt.Printf("  point %d retry (attempt %d, cause %s)\n", p.Index, p.Attempts, ev.Cause)
			}
		case "steal":
			if p := ev.Point; p != nil {
				fmt.Printf("  point %d stolen by %s (from %s)\n", p.Index, p.Worker, ev.Cause)
			}
		case "done":
			if ev.Stat != nil {
				fmt.Println(summary(ev.Stat))
			}
		}
		return nil
	})
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	server := bindClient(fs)
	fs.Parse(args)
	list, err := client(*server).List(context.Background())
	if err != nil {
		return err
	}
	if len(list.Sweeps) == 0 {
		fmt.Println("no sweeps")
		return nil
	}
	for _, st := range list.Sweeps {
		fmt.Println(summary(&st))
	}
	return nil
}

func cmdMkspec(args []string) error {
	fs := flag.NewFlagSet("mkspec", flag.ExitOnError)
	experiment := fs.String("experiment", "fig5", "experiment id ("+strings.Join(experiments.Names(), "|")+")")
	quick := fs.Bool("quick", false, "scaled-down runs (8-ary 2-cube, short windows)")
	loads := fs.String("loads", "", "comma-separated load override, e.g. 0.2,0.6,1.0")
	seed := fs.Uint64("seed", 0, "seed offset (0 = default)")
	fs.Parse(args)

	study, err := experiments.StudyByName(*experiment)
	if err != nil {
		return err
	}
	loadVals, err := specv1.ParseLoads(*loads)
	if err != nil {
		return err
	}
	return specv1.EncodeSpec(os.Stdout, study.Plan(experiments.Options{Quick: *quick, Seed: *seed, Loads: loadVals}))
}

func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	server := bindClient(fs)
	fs.Parse(args)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(*server, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", *server, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	fmt.Printf("%s: %s\n", *server, strings.TrimSpace(string(body)))
	return nil
}
