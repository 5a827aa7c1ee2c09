// Command sweepd is the sweep service: a coordinator that accepts versioned
// sweep specifications over HTTP, schedules their points onto a worker pool,
// dedupes results through a shared content-addressed store, and streams
// progress to any number of clients (see sweepctl).
//
//	sweepd -http :8600 -store sweep.store                 # in-process workers
//	sweepd -worker -http :8601 -store sweep.store         # one fleet worker
//	sweepd -http :8600 -store sweep.store \
//	       -fleet http://host1:8601,http://host2:8601     # coordinator of a fleet
//
// Every process in the fleet shares one store directory: the store's
// single-write appends make concurrent readers and writers safe, so a result
// computed anywhere is served everywhere — including to a later local
// charsweep run pointed at the same directory.
//
// The coordinator journals submissions and every scheduler transition
// (-journal), so a restarted sweepd resumes unfinished sweeps without
// re-executing completed points; the same file is the fleet span log that
// -fleet-perfetto renders at drain. SIGINT/SIGTERM drains gracefully:
// submissions are refused, in-flight points get -drain-grace to finish, and
// the journal resumes the rest on the next start.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/jsonlog"
	"flexsim/internal/obs"
	"flexsim/internal/obs/fleettrace"
	"flexsim/internal/runner"
	"flexsim/internal/sweepsvc"
)

func main() {
	os.Exit(run())
}

// The flags only one mode reads: setting one off its default in the other
// mode is a usage error, exit 2.
var (
	coordinatorOnly = []string{"workers", "fleet", "journal", "max-retries", "point-timeout", "health-every", "drain-grace", "fleet-perfetto"}
	workerOnly      = []string{"name", "spans-out"}
)

func run() (code int) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		httpAddr    = fs.String("http", "127.0.0.1:8600", "serve the sweep API (plus /metrics, /healthz, /progress) on this address")
		store       = fs.String("store", "sweep.store", "shared content-addressed result store directory")
		worker      = fs.Bool("worker", false, "run as a fleet worker (serve /api/v1/run) instead of a coordinator")
		name        = fs.String("name", "", "worker name reported in results (default: the listen address)")
		journal     = fs.String("journal", "", "coordinator journal for idempotent restart (default: <store>/journal.jsonl; \"none\" disables)")
		workers     = fs.Int("workers", 0, "in-process workers (0 = GOMAXPROCS when -fleet is empty, else none)")
		fleet       = fs.String("fleet", "", "comma-separated fleet worker base URLs, e.g. http://host:8601")
		maxRetries  = fs.Int("max-retries", 0, "re-executions per point after worker death/timeouts (0 = default of 2, negative = none)")
		pointTO     = fs.Duration("point-timeout", 0, "per-point execution timeout (0 = unbounded)")
		healthEvery = fs.Duration("health-every", 0, "poll period when gating an unhealthy fleet worker on /healthz (0 = 250ms)")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "grace for in-flight points when draining on SIGINT/SIGTERM")
		fleetPerf   = fs.String("fleet-perfetto", "", "coordinator: at drain, render the journal here as the fleet Perfetto timeline (one thread per worker, one slice per attempt)")
		spansOut    = fs.String("spans-out", "", "worker: per-run Perfetto timeline path (\"*\" expands to <label>-s<seed>-l<load>)")
	)
	fs.Parse(os.Args[1:])
	reader, dropped := "the coordinator", workerOnly
	if *worker {
		reader, dropped = "a -worker", coordinatorOnly
	}
	if bad := flags.Owned(fs, flags.Names(dropped...)); bad != "" {
		fmt.Fprintf(os.Stderr, "sweepd: -%s is not read by %s\n", bad, reader)
		return 2
	}
	if *fleetPerf != "" && *journal == "none" {
		fmt.Fprintln(os.Stderr, "sweepd: -fleet-perfetto reads the timeline from the journal; it cannot be used with -journal none")
		return 2
	}

	cache, err := runner.Open(*store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}
	defer func() {
		// A store write that failed earlier surfaces here: fail the process.
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			code = 1
		}
	}()

	ctx, cancel := flags.SignalContext(0)
	defer cancel()

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "sweepd: "+format+"\n", args...)
	}

	if *worker {
		wk := &sweepsvc.Worker{Name: *name, Cache: cache, SpansPath: *spansOut}
		srv, err := obs.Serve(*httpAddr, obs.WithHandler("/api/v1/", wk.Handler()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			return 1
		}
		defer srv.Close()
		if wk.Name == "" {
			wk.Name = srv.Addr()
		}
		logf("worker %s: serving /api/v1/run on http://%s (store %s, %d result(s) on disk)",
			wk.Name, srv.Addr(), cache.Dir(), cache.Len())
		<-ctx.Done()
		logf("worker %s: shutting down (%d run(s) executed)", wk.Name, wk.Executions())
		return 0
	}

	journalPath := *journal
	switch journalPath {
	case "":
		journalPath = filepath.Join(*store, "journal.jsonl")
	case "none":
		journalPath = ""
	}
	var fleetURLs []string
	for _, u := range strings.Split(*fleet, ",") {
		if u = strings.TrimSpace(u); u != "" {
			fleetURLs = append(fleetURLs, u)
		}
	}

	svc, err := sweepsvc.New(sweepsvc.Config{
		Cache:        cache,
		JournalPath:  journalPath,
		LocalWorkers: *workers,
		Fleet:        fleetURLs,
		MaxRetries:   *maxRetries,
		PointTimeout: *pointTO,
		HealthEvery:  *healthEvery,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}

	health := func(w io.Writer) {
		jp := journalPath
		if jp == "" {
			jp = "(disabled)"
		}
		sweeps, settled, requeued := svc.ReplayStatus()
		fmt.Fprintf(w, "journal: %s\nreplay: %d sweep(s), %d settled, %d requeued\n", jp, sweeps, settled, requeued)
	}
	srv, err := obs.Serve(*httpAddr,
		obs.WithSweep(svc.Progress()), obs.WithFleet(svc.Metrics()), obs.WithHealth(health),
		obs.WithHandler("/api/v1/", svc.APIHandler()))
	if err != nil {
		svc.Close()
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}
	defer srv.Close()

	mode := fmt.Sprintf("%d in-process worker(s)", *workers)
	if len(fleetURLs) > 0 {
		mode = fmt.Sprintf("fleet of %d worker(s)", len(fleetURLs))
		if *workers > 0 {
			mode += fmt.Sprintf(" + %d in-process", *workers)
		}
	} else if *workers == 0 {
		mode = "GOMAXPROCS in-process workers"
	}
	logf("coordinator on http://%s (%s; store %s, %d result(s) on disk)",
		srv.Addr(), mode, cache.Dir(), cache.Len())

	<-ctx.Done()
	logf("draining (grace %v)...", *drainGrace)
	svc.Drain(*drainGrace)
	logf("drained")
	if *fleetPerf != "" {
		if err := writeTimeline(*fleetPerf, journalPath); err != nil {
			logf("fleet perfetto: %v", err)
			return 1
		}
		logf("fleet timeline written to %s", *fleetPerf)
	}
	return 0
}

// writeTimeline renders the journal at journalPath as the fleet Perfetto
// timeline at path.
func writeTimeline(path, journalPath string) error {
	j, err := jsonlog.Open(journalPath)
	if err != nil {
		return err
	}
	records, err := fleettrace.ReadRecords(j)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fleettrace.WritePerfetto(f, records)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
