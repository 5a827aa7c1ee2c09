package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/api/specv1"
	"flexsim/internal/sim"
)

// childEnv turns the re-executed test binary into charsweep itself.
const childEnv = "CHARSWEEP_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// charsweep runs the command with args in dir and returns its stdout and
// exit code.
func charsweep(t *testing.T, dir string, args ...string) ([]byte, int) {
	t.Helper()
	out, _, code := charsweepStderr(t, dir, args...)
	return out, code
}

// charsweepStderr is charsweep that also returns the command's stderr.
func charsweepStderr(t *testing.T, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	t.Logf("charsweep %s: exit %d\n%s", strings.Join(args, " "), cmd.ProcessState.ExitCode(), errBuf.Bytes())
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

// simulated returns PointResult lines without the two wall-clock detector
// histograms, the only result bytes that differ between two runs of one
// configuration.
func simulated(t *testing.T, lines []byte) []byte {
	t.Helper()
	prs, err := specv1.ReadResults(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prs {
		res, err := specv1.DecodeResult(prs[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		simulated := res.Simulated()
		if prs[i].Result, err = specv1.EncodeResult(&simulated); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := specv1.WriteResults(&b, prs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSpecModeInstrumentation: -spec mode attaches the observability flags
// to every point — it used to drop them and leave a 0-byte metrics file —
// and, because instrumentation is not hashed, emits the same keys and the
// same simulated results with them as without.
func TestSpecModeInstrumentation(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir)

	plain, code := charsweep(t, dir, "-spec", "spec.json")
	if code != 0 || bytes.Count(plain, []byte("\n")) != 2 {
		t.Fatalf("plain run: exit %d, output %q", code, plain)
	}
	wired, code := charsweep(t, dir, "-spec", "spec.json",
		"-metrics-out", "m.csv", "-metrics-every", "50", "-spans-out", "spans.json", "-heatmap-out", "heat.csv")
	if code != 0 {
		t.Fatalf("instrumented run: exit %d", code)
	}
	if got, want := simulated(t, wired), simulated(t, plain); !bytes.Equal(got, want) {
		t.Errorf("instrumentation changed the result lines:\n got  %s\n want %s", got, want)
	}
	if st, err := os.Stat(filepath.Join(dir, "m.csv")); err != nil || st.Size() == 0 {
		t.Errorf("-metrics-out: %v, %v", st, err)
	}
	for _, pattern := range []string{"spans-*.json", "heat-*.csv"} {
		files, _ := filepath.Glob(filepath.Join(dir, pattern))
		if len(files) != 2 {
			t.Errorf("%s: %d file(s), want one per point: %v", pattern, len(files), files)
		}
		for _, name := range files {
			if st, err := os.Stat(name); err != nil || st.Size() == 0 {
				t.Errorf("%s: %v, %v", name, st, err)
			}
		}
	}
}

// TestApproxArtifacts: approx steps its own runners, and each of its three
// runs must end its artifacts under a name of its own — it used to close
// none (no heatmap CSV, truncated Perfetto files) and give both DOR runs
// one name.
func TestApproxArtifacts(t *testing.T) {
	dir := t.TempDir()
	if _, code := charsweep(t, dir, "-experiment", "approx", "-quick", "-heatmap-out", "h.csv", "-spans-out", "s.json"); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, pattern := range []string{"h-*.csv", "s-*.json"} {
		files, _ := filepath.Glob(filepath.Join(dir, pattern))
		if len(files) != 3 {
			t.Errorf("%s: %d file(s), want one per run: %v", pattern, len(files), files)
		}
		for _, name := range files {
			b, err := os.ReadFile(name)
			if err != nil || len(b) == 0 {
				t.Errorf("%s: %d byte(s), %v", name, len(b), err)
			} else if strings.HasSuffix(name, ".json") && !json.Valid(b) {
				t.Errorf("%s is not valid JSON", name)
			}
		}
	}
}

// TestTimeoutReachesNonSweeps: approx steps its own runners and verify
// runs the model checker, so neither goes through the runner; -timeout (and
// SIGINT, which cancels the same context) must still stop them. Both used to
// run to completion and print their tables.
func TestTimeoutReachesNonSweeps(t *testing.T) {
	for _, id := range []string{"approx", "verify"} {
		t.Run(id, func(t *testing.T) {
			out, stderr, _ := charsweepStderr(t, t.TempDir(), "-experiment", id, "-quick", "-timeout", "1ms")
			if len(out) != 0 || !bytes.Contains(stderr, []byte("charsweep: "+id+" interrupted")) {
				t.Errorf("stdout %q, stderr %q; want no table and %q", out, stderr, id+" interrupted")
			}
		})
	}
}

// TestSpecRefusesPlanFlags: a spec file owns what each point simulates, so
// -spec refuses -experiment and every flag BindPlan registers when given a
// non-default value, exiting 2 with the flag named. The plan flags are
// enumerated from the binder, so a flag added to the plan group is covered
// without editing this test.
func TestSpecRefusesPlanFlags(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir)
	plan := flag.NewFlagSet("plan", flag.ContinueOnError)
	flags.BindPlan(plan)
	args := [][]string{{"-experiment=fig5"}}
	plan.VisitAll(func(f *flag.Flag) {
		value := "7"
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			value = "true"
		}
		args = append(args, []string{"-" + f.Name + "=" + value})
	})
	if len(args) < 8 {
		t.Fatalf("BindPlan registered %d flag(s): %v", len(args)-1, args)
	}
	for _, a := range args {
		out, stderr, code := charsweepStderr(t, dir, append([]string{"-spec", "spec.json"}, a...)...)
		name := strings.SplitN(a[0], "=", 2)[0]
		if code != 2 || len(out) != 0 || !bytes.Contains(stderr, []byte(name+" cannot be combined with -spec")) {
			t.Errorf("-spec with %v: exit %d, output %q, stderr %q; want a refusal naming %s (exit 2)", a, code, out, stderr, name)
		}
	}
	if _, code := charsweep(t, dir, "-spec", "spec.json", "-experiment", "all", "-seed", "0"); code != 0 {
		t.Errorf("-spec with flags at their defaults: exit %d", code)
	}
}

// TestModeRefusesDroppedFlags: a flag the selected mode would drop is a usage
// error naming the flag, exit 2, before anything runs: -experiment writes no
// PointResult JSONL for -results-out, and -spec no table for -csv or -plot.
func TestModeRefusesDroppedFlags(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir)
	for _, c := range []struct {
		name string
		args []string
	}{
		{"-results-out", []string{"-experiment", "fig5", "-quick", "-loads", "0.2", "-results-out", "x.jsonl"}},
		{"-csv", []string{"-spec", "spec.json", "-csv"}},
		{"-plot", []string{"-spec", "spec.json", "-plot"}},
	} {
		out, stderr, code := charsweepStderr(t, dir, c.args...)
		if code != 2 || len(out) != 0 || !bytes.Contains(stderr, []byte("charsweep: "+c.name+" ")) {
			t.Errorf("%v: exit %d, %d byte(s) of output, stderr %q; want a refusal naming %s (exit 2)", c.args, code, len(out), stderr, c.name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.jsonl")); !os.IsNotExist(err) {
		t.Errorf("x.jsonl exists after a refused run (err %v)", err)
	}
}

// TestBindCLI: the flags only charsweep reads bind where run reads them,
// beside the shared groups on one FlagSet (a duplicate name would panic).
func TestBindCLI(t *testing.T) {
	fs := flag.NewFlagSet("charsweep", flag.ContinueOnError)
	flags.BindPlan(fs)
	flags.BindCommon(fs)
	c := bindCLI(fs)
	err := fs.Parse([]string{
		"-experiment", "fig5", "-spec", "s.json", "-results-out", "r.jsonl",
		"-csv", "-plot", "-parallel", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.experiment != "fig5" || c.spec != "s.json" || c.resultsOut != "r.jsonl" ||
		!c.csv || !c.plot || c.parallel != 4 {
		t.Errorf("charsweep flags misbound: %+v", c)
	}
}
