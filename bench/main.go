// Command bench is the repository's end-to-end benchmark: five named
// deadlock-characterization sweep workloads driven through the same entry
// points the binaries use (core.RunSpec, runner.Open, the specv1 codecs, and
// a sweepsvc coordinator with two workers over loopback TCP), with every
// output verified, and — in a separate traced run — wall time attributed to
// the layers a sweep crosses. See README.md in this directory.
//
//	go run ./bench                      every workload, tracing off
//	go run ./bench -workload subsat-sweep
//	go run ./bench -trace 1             per-layer metrics + span file
//	go run ./bench -sets 2              run twice, compare set medians
//	go run ./bench -sets 2 -trace 1     run twice, compare exact counts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeed is the seed the committed goldens were taken at.
const defaultSeed = 1997

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed
// repetitions of one untraced run go on for (never fewer than minReps).
const defaultSeconds = 10

// report is the last line a single-workload run prints: the driver's
// contract. Metrics maps name -> {value, unit}.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
	sets     int
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in a fresh child process)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload generator seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "seconds of timed repetitions per untraced run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans written to -trace-out")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default bench/trace-<workload>.jsonl)")
	flag.IntVar(&o.sets, "sets", 1, "run everything N times and compare the sets: medians against their bounds, with -trace 1 the exact counts")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds < 1 || o.sets < 1 {
		flag.Usage()
		return 2
	}
	o.trace = trace == 1
	if o.workload == "" {
		return runAll(o)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// Two busy threads at most: the reference box has two vCPUs, and a
	// wider host must not change what is measured.
	runtime.GOMAXPROCS(2)
	printEnv()
	rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if rep == nil {
		return 1
	}
	line, _ := json.Marshal(rep) // plain numbers and strings
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process, untraced or traced, inside
// a scratch directory under bench/ that it removes before returning.
func runWorkload(w workload, o options) (*report, error) {
	root, err := benchDir()
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in := &instance{w: w, seed: o.seed, dir: dir}
	if o.trace {
		out := o.traceOut
		if out == "" {
			out = filepath.Join(root, "trace-"+w.name+".jsonl")
		}
		return runTraced(in, out)
	}
	return runUntraced(in, o.seconds)
}

// benchDir finds this package's directory from the working directory: the
// module root's bench/ (go run ./bench from the root) or the directory
// itself (go test, go run . inside it).
func benchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return filepath.Join(d, "bench"), nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod above %s", wd)
		}
	}
}

// runAll runs every workload, each in a fresh child process of this binary
// so that one workload's heap, caches and peak RSS never reach the next,
// and with -sets N compares the sets (compareSets).
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sets := make([]map[string]*report, o.sets)
	ok := true
	for s := range sets {
		sets[s] = map[string]*report{}
		for _, w := range workloads {
			if o.sets > 1 {
				fmt.Printf("--- set %d/%d ---\n", s+1, o.sets)
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds)}
			if o.trace {
				args = append(args, "-trace", "1")
				if o.traceOut != "" {
					// One span file per workload beside the name given.
					ext := filepath.Ext(o.traceOut)
					args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"-"+w.name+ext)
				}
			}
			rep, err := runChild(self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				ok = false
				continue
			}
			sets[s][w.name] = rep
		}
	}
	if o.sets > 1 && !compareSets(sets, o.trace) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, relays its output, and
// decodes the report on its last line.
func runChild(self string, args []string) (*report, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("no report on the last line: %w", err)
	}
	return &rep, nil
}

// compareSets prints, per workload and metric, each set's value and the
// largest relative gap between sets, and reports whether every gap is within
// bounds: an end-to-end metric's own bound for untraced sets, none at all for
// the exact counts of traced sets (times of single traced repetitions are
// not compared).
func compareSets(sets []map[string]*report, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = nil
		for _, m := range perLayer {
			if exactCounts[m.name] {
				defs = append(defs, m) // bound 0
			}
		}
	}
	ok := true
	fmt.Printf("\n== %d sets: per-set value, max relative gap, bound ==\n", len(sets))
	for _, w := range workloads {
		for _, m := range defs {
			var vals []float64
			for _, s := range sets {
				if rep := s[w.name]; rep != nil {
					vals = append(vals, rep.Metrics[m.name].Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			gap := 0.0
			if hi > lo {
				gap = (hi - lo) / lo // +Inf from a zero: over any bound
			}
			verdict := "ok"
			if gap > m.bound {
				verdict = "EXCEEDED"
				ok = false
			}
			fmt.Printf("%-16s %-26s %.5g  gap %.2f%%  bound %.0f%%  %s\n",
				w.name, m.name, vals, 100*gap, 100*m.bound, verdict)
		}
	}
	return ok
}
