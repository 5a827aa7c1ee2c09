package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	t.Logf("charsweep %s: exit %d\n%s", strings.Join(args, " "), cmd.ProcessState.ExitCode(), stderr.Bytes())
	return out, cmd.ProcessState.ExitCode()
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
		res.DetectBuildTime, res.DetectAnalyzeTime = stats.Histogram{}, stats.Histogram{}
		if prs[i].Result, err = specv1.EncodeResult(res); err != nil {
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
// same simulated results with them as without. A flag whose meaning the spec
// owns is refused.
func TestSpecModeInstrumentation(t *testing.T) {
	dir := t.TempDir()
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

	for _, args := range [][]string{
		{"-fault-link-mttf", "100"}, {"-fault-repair", "5"}, {"-fault-seed", "3"}, {"-fault-schedule", "f.jsonl"},
		{"-seed", "9"}, {"-loads", "0.5"}, {"-quick"}, {"-experiment", "fig5"},
	} {
		out, code := charsweep(t, dir, append([]string{"-spec", "spec.json"}, args...)...)
		if code != 2 || len(out) != 0 {
			t.Errorf("-spec with %v: exit %d, output %q; want a refusal (exit 2)", args, code, out)
		}
	}
	if _, code := charsweep(t, dir, "-spec", "spec.json", "-experiment", "all", "-seed", "0"); code != 0 {
		t.Errorf("-spec with flags at their defaults: exit %d", code)
	}
}
