package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFleetPerfettoNeedsJournal: the fleet timeline is rendered from the
// journal, so asking for one with the journal disabled is a usage error at
// startup, before the store is opened — not an empty timeline at drain.
func TestFleetPerfettoNeedsJournal(t *testing.T) {
	dir := t.TempDir()
	timeline, store := filepath.Join(dir, "fleet-trace.json"), filepath.Join(dir, "st")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"sweepd", "-fleet-perfetto", timeline, "-journal", "none", "-store", store}
	if code := run(); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, path := range []string{timeline, store} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after a refused start (err %v)", path, err)
		}
	}
}

// sweepd runs the command in process with args and returns its stderr and
// exit status.
func sweepd(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	savedArgs, savedStderr := os.Args, os.Stderr
	defer func() { os.Args, os.Stderr = savedArgs, savedStderr }()
	os.Args, os.Stderr = append([]string{"sweepd"}, args...), f
	code = run()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), code
}

// TestModeRefusesDroppedFlags: a flag only the other mode reads is a usage
// error naming the flag, at startup and before the store is opened: a
// coordinator's in-process workers read neither -name nor -spans-out, and a
// -worker reads no scheduling, journal or drain flag. The listen address is
// unusable, so a start that gets past the check fails with 1.
func TestModeRefusesDroppedFlags(t *testing.T) {
	values := map[string]string{
		"workers": "2", "fleet": "http://127.0.0.1:1", "journal": "j.jsonl", "max-retries": "1",
		"point-timeout": "1s", "health-every": "1s", "drain-grace": "1s", "fleet-perfetto": "f.json",
		"name": "w1", "spans-out": "s.json",
	}
	for mode, names := range map[string][]string{
		"-worker":     {"workers", "fleet", "journal", "max-retries", "point-timeout", "health-every", "drain-grace", "fleet-perfetto"},
		"coordinator": {"name", "spans-out"},
	} {
		for _, name := range names {
			store := filepath.Join(t.TempDir(), "st")
			args := []string{"-http", "127.0.0.1:-1", "-store", store, "-" + name, values[name]}
			if mode == "-worker" {
				args = append(args, "-worker")
			}
			stderr, code := sweepd(t, args...)
			if code != 2 || !strings.Contains(stderr, "-"+name+" is not read by") {
				t.Errorf("%s with -%s: exit %d, stderr %q; want a refusal naming -%s (exit 2)", mode, name, code, stderr, name)
			}
			if _, err := os.Stat(store); !os.IsNotExist(err) {
				t.Errorf("%s with -%s: store exists after a refused start (err %v)", mode, name, err)
			}
		}
	}
}
