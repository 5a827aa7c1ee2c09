package main

import (
	"os"
	"path/filepath"
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
