package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/trace"
)

// childEnv turns the re-executed test binary into flexsim itself.
const childEnv = "FLEXSIM_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// flexsim runs the command with args in dir and returns its stdout, stderr
// and exit code.
func flexsim(t *testing.T, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	return child(t, exec.Command(os.Args[0], args...), dir)
}

// child runs cmd, a command that re-executes the test binary, in dir as
// flexsim.
func child(t *testing.T, cmd *exec.Cmd, dir string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	t.Logf("flexsim %s: exit %d\n%s", strings.Join(cmd.Args[1:], " "), cmd.ProcessState.ExitCode(), errBuf.Bytes())
	return out, errBuf.Bytes(), cmd.ProcessState.ExitCode()
}

// writeSpec writes a two-point spec of sub-second runs to dir/spec.json.
func writeSpec(t *testing.T, dir string) {
	t.Helper()
	base := sim.Quick()
	base.K, base.Routing, base.WarmupCycles, base.MeasureCycles = 4, "dor", 100, 400
	f, err := os.Create(filepath.Join(dir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := specv1.EncodeSpec(f, specv1.LoadSpec("two", base, []float64{0.3, 0.9})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// sweepSpec runs every point of dir/spec.json the way charsweep -spec does
// (runner.Map over Spec.Configs with the store at cacheDir, if any, then
// specv1.PointResults) and returns the PointResults it writes.
func sweepSpec(t *testing.T, dir, cacheDir string) []specv1.PointResult {
	t.Helper()
	spec, err := flags.ReadSpec(filepath.Join(dir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	configs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	var opts runner.Options
	if cacheDir != "" {
		if opts.Cache, err = runner.Open(cacheDir); err != nil {
			t.Fatal(err)
		}
	}
	results, err := specv1.PointResults(configs, runner.Map(context.Background(), configs, opts))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cache != nil {
		if err := opts.Cache.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// stored returns the (key, result) lines of the store at dir.
func stored(t *testing.T, dir string) (keys []string, results []json.RawMessage) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		keys, results = append(keys, e.Key), append(results, e.Result)
	}
	return keys, results
}

// simulated is a result's bytes with the two wall-clock histograms zeroed.
func simulated(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var res stats.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	s := res.Simulated()
	b, err := stats.EncodeResult(&s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBindOutputs: the flags only flexsim reads bind where run reads them,
// beside the shared groups on one FlagSet (a duplicate name would panic).
func TestBindOutputs(t *testing.T) {
	fs := flag.NewFlagSet("flexsim", flag.ContinueOnError)
	cfg := sim.Default()
	flags.BindSpec(fs, &cfg)
	flags.BindCommon(fs)
	o := bindOutputs(fs)
	err := fs.Parse([]string{
		"-trace-last", "16", "-trace-json", "t.jsonl", "-incidents-out", "inc.jsonl", "-incidents-dot",
		"-spec", "s.json", "-point", "3", "-dot", "g.dot", "-at-cycle", "300", "-repro", "r.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.traceLast != 16 || o.traceJSON != "t.jsonl" || o.incidentsOut != "inc.jsonl" || !o.incidentsDOT ||
		o.spec != "s.json" || o.point != 3 || o.dot != "g.dot" || o.atCycle != 300 || o.repro != "r.json" {
		t.Errorf("flexsim flags misbound: %+v", o)
	}
}

// TestReplayIsThePoint: -spec FILE -point I runs exactly point I. Its
// stored result is the one charsweep -spec writes for that point, wall-clock
// histograms aside, under the key it prints.
func TestReplayIsThePoint(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir)
	want := sweepSpec(t, dir, "")
	for i, pr := range want {
		store := fmt.Sprintf("store%d", i)
		out, _, code := flexsim(t, dir, "-spec", "spec.json", "-point", fmt.Sprint(i), "-cache-dir", store)
		if code != 0 {
			t.Fatalf("point %d: exit %d", i, code)
		}
		if !bytes.Contains(out, []byte(", key "+pr.Key+"\n")) {
			t.Errorf("point %d: output does not print key %s:\n%s", i, pr.Key, out)
		}
		keys, results := stored(t, filepath.Join(dir, store))
		if len(keys) != 1 || keys[0] != pr.Key {
			t.Fatalf("point %d: store keys %v, want [%s]", i, keys, pr.Key)
		}
		if got, want := simulated(t, results[0]), simulated(t, pr.Result); !bytes.Equal(got, want) {
			t.Errorf("point %d: replay differs from the sweep's result:\n got  %s\n want %s", i, got, want)
		}
	}
}

// TestReplayAudits: replaying a point the store holds appends nothing and
// exits 0 when the replay equals the stored result, and exits 1 naming the
// key when the store holds another point's bytes under it.
func TestReplayAudits(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir)
	good := filepath.Join(dir, "good")
	results := sweepSpec(t, dir, good)
	before, err := os.ReadFile(filepath.Join(good, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if _, stderr, code := flexsim(t, dir, "-spec", "spec.json", "-point", fmt.Sprint(i), "-cache-dir", "good"); code != 0 {
			t.Errorf("point %d against its own store: exit %d\n%s", i, code, stderr)
		}
	}
	if after, _ := os.ReadFile(filepath.Join(good, "results.jsonl")); !bytes.Equal(after, before) {
		t.Errorf("an audited replay changed the store:\n%s\nwas\n%s", after, before)
	}

	bad, err := runner.Open(filepath.Join(dir, "bad"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.PutRaw(results[0].Key, "", results[0].Load, results[1].Result); err != nil {
		t.Fatal(err)
	}
	if err := bad.Close(); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := flexsim(t, dir, "-spec", "spec.json", "-point", "0", "-cache-dir", "bad")
	if code != 1 || !bytes.Contains(stderr, []byte(results[0].Key)) {
		t.Errorf("point 0 against point 1's bytes: exit %d, stderr %q; want exit 1 naming %s", code, stderr, results[0].Key)
	}
	if keys, _ := stored(t, filepath.Join(dir, "bad")); len(keys) != 1 {
		t.Errorf("a failed audit appended to the store: %d line(s)", len(keys))
	}
}

// TestSpecRefusesPhysics: a spec file owns the physics, so -spec refuses
// every flag BindSpec registers when given a non-default value, exiting 2
// with the flag named; -point out of range or without -spec exits 2 too.
// The physics flags are enumerated from the binder, so a flag added there
// is covered without editing this test.
func TestSpecRefusesPhysics(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir)
	physics := flag.NewFlagSet("physics", flag.ContinueOnError)
	cfg := sim.Default()
	flags.BindSpec(physics, &cfg)
	var n int
	physics.VisitAll(func(f *flag.Flag) {
		n++
		value := "7"
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			value = fmt.Sprint(f.DefValue != "true")
		}
		out, stderr, code := flexsim(t, dir, "-spec", "spec.json", "-point", "0", "-"+f.Name+"="+value)
		if code != 2 || len(out) != 0 || !bytes.Contains(stderr, []byte("-"+f.Name+" cannot be combined with -spec")) {
			t.Errorf("-spec with -%s=%s: exit %d, output %q, stderr %q; want a refusal naming it (exit 2)", f.Name, value, code, out, stderr)
		}
	})
	if n < 25 {
		t.Fatalf("BindSpec registered %d flag(s)", n)
	}
	for _, args := range [][]string{
		{"-spec", "spec.json", "-point", "2"},
		{"-spec", "spec.json"},
		{"-point", "0"},
	} {
		if out, _, code := flexsim(t, dir, args...); code != 2 || len(out) != 0 {
			t.Errorf("%v: exit %d, output %q; want exit 2", args, code, out)
		}
	}
}

// TestStoreFailureExits1: a result the store could not append is an error,
// not a silent success (the child cannot grow any file: RLIMIT_FSIZE 0,
// and Go ignores SIGXFSZ, so the append fails with EFBIG).
func TestStoreFailureExits1(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-c", `ulimit -f 0 && exec "$0" "$@"`, os.Args[0], "-k", "4", "-warmup", "100", "-cycles", "400", "-cache-dir", "store"}
	_, stderr, code := child(t, exec.Command("sh", args...), dir)
	if code != 1 || !bytes.Contains(stderr, []byte("cache write")) {
		t.Errorf("exit %d, stderr %q; want exit 1 reporting the failed write", code, stderr)
	}
}

// filledVertex matches a knot vertex of a full CWG in DOT; knotVertex any
// vertex of an incident's knot subgraph.
var (
	filledVertex = regexp.MustCompile(`(?m)^  v\d+ \[label="([^"]*)", style=filled`)
	knotVertex   = regexp.MustCompile(`(?m)^  v\d+ \[label="([^"]*)"\];`)
)

// labels returns the first submatches of re in s, sorted.
func labels(re *regexp.Regexp, s string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	slices.Sort(out)
	return out
}

// TestDotIsTheFirstIncident: -dot stops at the first detector pass that
// finds a knot, and the knot vertices of the graph it writes are the knot
// VCs that pass's incidents record in a full run of the same physics.
func TestDotIsTheFirstIncident(t *testing.T) {
	dir := t.TempDir()
	physics := []string{"-k", "4", "-uni", "-routing", "dor", "-load", "1.0", "-warmup", "100", "-cycles", "2000"}
	if _, _, code := flexsim(t, dir, append(physics, "-incidents-out", "inc.jsonl", "-incidents-dot")...); code != 0 {
		t.Fatalf("incident run: exit %d", code)
	}
	b, err := os.ReadFile(filepath.Join(dir, "inc.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	first := int64(-1)
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var inc struct {
			Cycle   int64  `json:"cycle"`
			KnotDOT string `json:"knot_dot"`
		}
		if err := json.Unmarshal(line, &inc); err != nil {
			t.Fatal(err)
		}
		if first >= 0 && inc.Cycle != first {
			break
		}
		first = inc.Cycle
		want = append(want, labels(knotVertex, inc.KnotDOT)...)
	}
	slices.Sort(want)
	if len(want) == 0 {
		t.Fatalf("no incident in %s", b)
	}

	_, stderr, code := flexsim(t, dir, append(physics, "-dot", "first.dot")...)
	if code != 0 || !bytes.Contains(stderr, []byte(fmt.Sprintf("deadlock detected at cycle %d ", first))) {
		t.Fatalf("-dot: exit %d, stderr %q; want the knot at cycle %d", code, stderr, first)
	}
	dot, err := os.ReadFile(filepath.Join(dir, "first.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if got := labels(filledVertex, string(dot)); !slices.Equal(got, want) {
		t.Errorf("-dot knot vertices %v, want the first incidents' %v", got, want)
	}

	// -at-cycle writes the graph replayed from the resource ring instead.
	at := fmt.Sprint(first - 1)
	_, stderr, code = flexsim(t, dir, append(physics, "-dot", "at.dot", "-at-cycle", at, "-forensics-depth", "65536")...)
	if code != 0 || !bytes.Contains(stderr, []byte("replayed CWG at cycle "+at+":")) {
		t.Errorf("-at-cycle %s: exit %d, stderr %q", at, code, stderr)
	}
	if _, _, code = flexsim(t, dir, append(physics, "-dot", "at.dot", "-at-cycle", at)...); code != 2 {
		t.Errorf("-at-cycle without -forensics-depth: exit %d, want 2", code)
	}
}

// TestReproReportsTheKnot: -repro restores a model-checked exemplar and the
// detector reports its one three-message knot, drawn in the -dot graph.
func TestReproReportsTheKnot(t *testing.T) {
	dir := t.TempDir()
	repro, err := filepath.Abs("../../results/repros/ring-uni-k3-vc1-dor-m3-l2-b1-exemplar.json")
	if err != nil {
		t.Fatal(err)
	}
	_, stderr, code := flexsim(t, dir, "-repro", repro, "-dot", "knot.dot")
	if code != 0 || !bytes.Contains(stderr, []byte("detector: 1 knot(s)")) ||
		!bytes.Contains(stderr, []byte("deadlock set [0 1 2] (3 msgs)")) {
		t.Fatalf("exit %d, stderr %q; want one knot of messages 0, 1 and 2", code, stderr)
	}
	dot, err := os.ReadFile(filepath.Join(dir, "knot.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if got := labels(filledVertex, string(dot)); len(got) != 3 {
		t.Errorf("knot vertices %v, want 3", got)
	}
}

// traceArgs is a sub-second run with deadlocks and recoveries, so every
// kind of lifecycle event is traced.
var traceArgs = []string{"-k", "8", "-uni", "-routing", "dor", "-load", "0.9", "-warmup", "100", "-cycles", "400", "-seed", "3"}

// TestTraceJSONHoldsEveryEvent: -trace-json writes one JSON event per line,
// as many lines as a trace.Counter counts on the same run in process.
func TestTraceJSONHoldsEveryEvent(t *testing.T) {
	dir := t.TempDir()
	if _, _, code := flexsim(t, dir, append(traceArgs, "-trace-json", "t.jsonl")...); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i, l := range lines {
		var e trace.Event
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("line %d: %v: %q", i+1, err, l)
		}
	}

	cfg := sim.Default()
	fs := flag.NewFlagSet("flexsim", flag.ContinueOnError)
	spec := flags.BindSpec(fs, &cfg)
	if err := fs.Parse(traceArgs); err != nil {
		t.Fatal(err)
	}
	if err := spec.Apply(); err != nil {
		t.Fatal(err)
	}
	var c trace.Counter
	cfg.Tracer = &c
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	for _, n := range c.Counts {
		events += n
	}
	if res.Deadlocks == 0 || int64(len(lines)) != events {
		t.Errorf("%d line(s) in the file, %d event(s) counted, %d deadlock(s); want equal counts and a deadlock",
			len(lines), events, res.Deadlocks)
	}
}

// TestTraceJSONWriteFailureExits1: a trace file that cannot be written fails
// the run, whether the write fails while it steps or at the final flush.
func TestTraceJSONWriteFailureExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the writes")
	}
	_, stderr, code := flexsim(t, t.TempDir(), append(traceArgs, "-trace-json", "/dev/full")...)
	if code != 1 || !bytes.Contains(stderr, []byte("no space left on device")) {
		t.Errorf("exit %d, stderr %q; want 1 and the write error", code, stderr)
	}
}
