package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/api/specv1"
	"flexsim/internal/obs"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/sweepsvc"
)

// childEnv turns the re-executed test binary into sweepctl itself.
const childEnv = "SWEEPCTL_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// sweepctl runs the command with args in dir and returns its stdout, its
// stderr and its exit status.
func sweepctl(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
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
	t.Logf("sweepctl %s: exit %d\n%s", strings.Join(args, " "), cmd.ProcessState.ExitCode(), errBuf.Bytes())
	return string(out), errBuf.String(), cmd.ProcessState.ExitCode()
}

// serve starts a coordinator with in-process workers behind the mux sweepd
// serves, and writes a two-point spec of sub-second runs to dir/spec.json.
func serve(t *testing.T, dir string) (*sweepsvc.Service, *httptest.Server) {
	t.Helper()
	cache, err := runner.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	svc, err := sweepsvc.New(sweepsvc.Config{Cache: cache, LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(obs.NewMux(obs.WithHandler("/api/v1/", svc.APIHandler())))
	t.Cleanup(srv.Close)

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
	return svc, srv
}

// TestSubmitWatchResults: a watched submission follows the sweep to its
// final summary line, and its results come back as specv1 JSONL.
func TestSubmitWatchResults(t *testing.T) {
	dir := t.TempDir()
	_, srv := serve(t, dir)
	out, _, code := sweepctl(t, dir, "submit", "-server", srv.URL, "-f", "spec.json", "-watch")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || !strings.Contains(lines[len(lines)-1], " done: 2/2 settled") {
		t.Fatalf("submit -watch: exit %d, output %q; want exit 0 and a final \"done: 2/2 settled\" line", code, out)
	}
	id := strings.Fields(lines[0])[1]

	out, _, code = sweepctl(t, dir, "results", "-server", srv.URL, id)
	if code != 0 {
		t.Fatalf("results: exit %d", code)
	}
	results, err := specv1.ReadResults(strings.NewReader(out))
	if err != nil || len(results) != 2 {
		t.Errorf("results: %d result(s), %v; want 2 that specv1.ReadResults accepts", len(results), err)
	}
}

// TestSubmitJSONNeedsWatch: -json formats the watched event stream, so
// without -watch it is refused before anything is submitted.
func TestSubmitJSONNeedsWatch(t *testing.T) {
	dir := t.TempDir()
	svc, srv := serve(t, dir)
	out, stderr, code := sweepctl(t, dir, "submit", "-server", srv.URL, "-f", "spec.json", "-json")
	if code != 2 || out != "" || !strings.Contains(stderr, "-json needs -watch") {
		t.Errorf("submit -json: exit %d, output %q, stderr %q; want a refusal naming -json (exit 2)", code, out, stderr)
	}
	if n := len(svc.List().Sweeps); n != 0 {
		t.Errorf("%d sweep(s) submitted by a refused command", n)
	}
}

// TestUnknownCommand: a command sweepctl does not have is a usage error.
func TestUnknownCommand(t *testing.T) {
	if _, _, code := sweepctl(t, t.TempDir(), "frobnicate"); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

// TestHealth: health answers 0 for a live coordinator and 1 once it is
// gone.
func TestHealth(t *testing.T) {
	dir := t.TempDir()
	_, srv := serve(t, dir)
	if _, _, code := sweepctl(t, dir, "health", "-server", srv.URL); code != 0 {
		t.Errorf("live server: exit %d, want 0", code)
	}
	srv.Close()
	if _, _, code := sweepctl(t, dir, "health", "-server", srv.URL); code != 1 {
		t.Errorf("closed server: exit %d, want 1", code)
	}
}

// TestSweepIDRequired: status, results and watch name one sweep, so each is
// a usage error without an id.
func TestSweepIDRequired(t *testing.T) {
	for _, cmd := range []string{"status", "results", "watch"} {
		if _, stderr, code := sweepctl(t, t.TempDir(), cmd); code != 2 || !strings.Contains(stderr, "<sweep-id>") {
			t.Errorf("%s without an id: exit %d, stderr %q; want exit 2 and the usage line", cmd, code, stderr)
		}
	}
}
