package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// flexcheck runs the command in process with args and returns its exit
// status.
func flexcheck(t *testing.T, args ...string) int {
	t.Helper()
	saved := os.Args
	defer func() { os.Args = saved }()
	os.Args = append([]string{"flexcheck"}, args...)
	return run()
}

// TestUnknownGrid: a grid that is not short, full or custom is a usage
// error.
func TestUnknownGrid(t *testing.T) {
	if code := flexcheck(t, "-grid", "tiny", "-q"); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

// TestConfigFlagNeedsCustomGrid: the flags that describe one configuration
// are read only by -grid custom; any other grid checks its own
// configurations.
func TestConfigFlagNeedsCustomGrid(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "line"}, {"-k", "4"}, {"-vcs", "2"}, {"-routing", "tfar"},
		{"-messages", "2"}, {"-msg-len", "1"}, {"-buf", "2"},
	} {
		out := filepath.Join(t.TempDir(), "report.json")
		if code := flexcheck(t, append([]string{"-grid", "short", "-q", "-out", out}, args...)...); code != 2 {
			t.Errorf("-grid short %v: exit %d, want 2", args, code)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-grid short %v: a report was written (err %v)", args, err)
		}
	}
}

// TestCustomGrid: one custom configuration is checked and reported, with no
// divergence.
func TestCustomGrid(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if code := flexcheck(t, "-grid", "custom", "-topo", "ring-uni", "-k", "3", "-q", "-out", out); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Grid                    string            `json:"grid"`
		Configs                 []json.RawMessage `json:"configs"`
		TotalStates             int               `json:"total_states"`
		SoundnessDivergences    *int              `json:"soundness_divergences"`
		CompletenessDivergences *int              `json:"completeness_divergences"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Grid != "custom" || len(rep.Configs) != 1 || rep.TotalStates == 0 {
		t.Errorf("report: grid %q, %d config(s), %d state(s); want custom, 1, > 0", rep.Grid, len(rep.Configs), rep.TotalStates)
	}
	if rep.SoundnessDivergences == nil || *rep.SoundnessDivergences != 0 ||
		rep.CompletenessDivergences == nil || *rep.CompletenessDivergences != 0 {
		t.Errorf("report divergences: soundness %v, completeness %v; want 0 and 0", rep.SoundnessDivergences, rep.CompletenessDivergences)
	}
}
