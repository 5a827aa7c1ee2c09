package modelcheck

import (
	"context"
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
)

// uniRing3 is the canonical deadlock-capable configuration: three messages
// on a 3-node unidirectional ring under plain DOR with one VC.
func uniRing3() Config {
	return Config{
		Topology: "ring-uni", K: 3, VCs: 1, Routing: "dor",
		Messages: 3, MsgLen: 2, BufferDepth: 1,
	}
}

func TestCanonicalizeRoundTrip(t *testing.T) {
	s := state{msgs: []msgState{
		{src: 2, dst: 0, qpos: -1, srcRem: 1, path: []message.VC{8}, occ: []int8{1}},
		{src: 0, dst: 2, qpos: 0, srcRem: 2},
		{src: 0, dst: 1, qpos: 1, srcRem: 2},
	}}
	key, perm := s.canonicalize()
	// Decode and re-canonicalize: the key must be a fixed point.
	d := decodeState(key, 3)
	key2, perm2 := d.canonicalize()
	if key2 != key {
		t.Fatalf("canonical key is not a fixed point:\n  first  %q\n  second %q", key, key2)
	}
	for i := 0; i < 3; i++ {
		if perm2[i] != int8(i) {
			t.Fatalf("re-canonicalizing a canonical state permuted message %d -> %d", i, perm2[i])
		}
	}
	// perm must be a permutation of 0..2.
	var seen [3]bool
	for i := 0; i < 3; i++ {
		p := perm[i]
		if p < 0 || p >= 3 || seen[p] {
			t.Fatalf("perm %v is not a permutation", perm[:3])
		}
		seen[p] = true
	}
}

func TestCanonicalizeCollapsesSymmetry(t *testing.T) {
	// Two messages with swapped identities must canonicalize identically.
	a := state{msgs: []msgState{
		{src: 0, dst: 2, qpos: 0, srcRem: 2},
		{src: 1, dst: 0, qpos: 0, srcRem: 2},
	}}
	b := state{msgs: []msgState{
		{src: 1, dst: 0, qpos: 0, srcRem: 2},
		{src: 0, dst: 2, qpos: 0, srcRem: 2},
	}}
	ka, _ := a.canonicalize()
	kb, _ := b.canonicalize()
	if ka != kb {
		t.Fatalf("identity-swapped states got distinct keys %q vs %q", ka, kb)
	}
}

// TestRestoreEveryState loads every reachable state of a tiny configuration
// into the real engine; RestoreState's invariant checking makes this a
// round-trip validation of the abstraction.
func TestRestoreEveryState(t *testing.T) {
	cfg := Config{
		Topology: "ring-uni", K: 3, VCs: 1, Routing: "dor",
		Messages: 2, MsgLen: 2, BufferDepth: 1,
	}
	sy, err := cfg.build()
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplorer(sy, 100000)
	if err := ex.explore(sy.initialStates()); err != nil {
		t.Fatal(err)
	}
	if ex.truncated {
		t.Fatal("tiny configuration should not truncate")
	}
	owners := make([]int8, sy.net.TotalVCs())
	for idx := range ex.states {
		s := decodeState(ex.states[idx].key, cfg.Messages)
		s.owners(owners)
		if err := sy.restore(&s, owners, nil); err != nil {
			t.Fatalf("state %d rejected by the engine: %v", idx, err)
		}
	}
	if len(ex.states) < 100 {
		t.Fatalf("suspiciously small state space: %d states", len(ex.states))
	}
}

// TestKnownDeadlock checks that the classic 3-message cyclic deadlock on a
// unidirectional ring is (a) reached by the explorer, (b) judged stuck by
// ground truth, (c) reported by the detector, with zero divergences either
// way, and that an exemplar repro is extracted.
func TestKnownDeadlock(t *testing.T) {
	res, err := Run(uniRing3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("uni-ring k=3 should fit well under the default state cap")
	}
	if res.StuckStates == 0 {
		t.Error("ground truth found no stuck states; the cyclic deadlock must be reachable")
	}
	if res.KnotStates == 0 {
		t.Error("detector reported no knots on a deadlock-capable configuration")
	}
	if res.SoundnessDivergences != 0 {
		t.Errorf("%d soundness divergences (knot members provably live)", res.SoundnessDivergences)
	}
	if res.CompletenessDivergences != 0 {
		t.Errorf("%d completeness divergences (stuck messages never reported)", res.CompletenessDivergences)
	}
	if res.LatentStates == 0 {
		t.Error("expected latent states (inevitable deadlock, knot not yet formed) on the uni-ring")
	}
	if res.Exemplar == nil {
		t.Fatal("no exemplar repro extracted from a configuration with agreed deadlocks")
	}
	if res.Exemplar.Stuck == 0 || res.Exemplar.KnotDOT == "" {
		t.Errorf("exemplar incomplete: stuck=%#x knotDOT=%d bytes",
			res.Exemplar.Stuck, len(res.Exemplar.KnotDOT))
	}
	// The minimized exemplar must replay through the real pipeline.
	rp, err := res.Exemplar.Replay()
	if err != nil {
		t.Fatalf("exemplar does not replay: %v", err)
	}
	if len(rp.Analysis.Deadlocks) == 0 {
		t.Error("replayed exemplar lost its knot")
	}
}

// TestDeadlockFreeControl checks the negative direction: dateline DOR on a
// ring must never deadlock, and the detector must never claim otherwise.
func TestDeadlockFreeControl(t *testing.T) {
	cfg := Config{
		Topology: "ring-uni", K: 3, VCs: 2, Routing: "dateline-dor",
		Messages: 3, MsgLen: 2, BufferDepth: 1,
	}
	res, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckStates != 0 {
		t.Errorf("dateline DOR produced %d ground-truth stuck states", res.StuckStates)
	}
	if res.KnotStates != 0 {
		t.Errorf("detector reported knots in %d states of a deadlock-free configuration", res.KnotStates)
	}
	if res.SoundnessDivergences+res.CompletenessDivergences != 0 {
		t.Errorf("divergences on deadlock-free control: sound=%d complete=%d",
			res.SoundnessDivergences, res.CompletenessDivergences)
	}
}

// TestTimeoutCrossValidation sanity-checks the blocked-age table: at
// threshold 1 every stuck observation is flagged (perfect recall), and
// recall is monotonically non-increasing in the threshold.
func TestTimeoutCrossValidation(t *testing.T) {
	res, err := Run(uniRing3(), Options{Thresholds: []int{1, 2, 4, 8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeout) != 5 {
		t.Fatalf("expected 5 timeout rows, got %d", len(res.Timeout))
	}
	t1 := res.Timeout[0]
	if t1.Threshold != 1 {
		t.Fatalf("rows out of order: first threshold %d", t1.Threshold)
	}
	if t1.FalseNegatives != 0 {
		// A stuck message is by definition blocked in the state observed,
		// so its age is >= 1 and threshold 1 must flag it.
		t.Errorf("threshold 1 produced %d false negatives", t1.FalseNegatives)
	}
	if t1.Observations == 0 || t1.Flagged == 0 {
		t.Errorf("no timeout observations accumulated: %+v", t1)
	}
	prev := 2.0
	for _, row := range res.Timeout {
		if row.TruePositives+row.FalseNegatives == 0 {
			continue
		}
		if row.Recall > prev+1e-9 {
			t.Errorf("recall increased with threshold: %+v", res.Timeout)
		}
		prev = row.Recall
	}
}

// TestBuildRefusesMisrouteBudget: a state holds only the VCs a message
// still owns, so it cannot count the nonminimal hops a misroute budget
// reads; such a relation is refused rather than checked as something else.
func TestBuildRefusesMisrouteBudget(t *testing.T) {
	for _, c := range []struct {
		routing string
		vcs     int
		refused bool
	}{
		{"misroute-far", 1, true},
		{"dor", 1, false},
		{"tfar", 1, false},
		{"dateline-dor", 2, false},
	} {
		cfg := Config{Topology: "ring-bi", K: 4, VCs: c.vcs, Routing: c.routing,
			Messages: 2, MsgLen: 2, BufferDepth: 1}
		_, err := cfg.build()
		if refused := err != nil; refused != c.refused {
			t.Errorf("%s: build error %v, want refused=%v", c.routing, err, c.refused)
		} else if refused && !strings.Contains(err.Error(), "misroute budget of 4") {
			t.Errorf("%s: error %q does not name the budget", c.routing, err)
		}
	}
}

// spaceCounts is what a configuration's explored state space is pinned by.
type spaceCounts struct {
	States, Edges, Initial, Complete, Blocked, Stuck, Knot, Latent int
	Truncated                                                      bool
}

func countsOf(c *ConfigResult) spaceCounts {
	return spaceCounts{c.States, c.Edges, c.InitialStates, c.CompleteStates,
		c.BlockedStates, c.StuckStates, c.KnotStates, c.LatentStates, c.Truncated}
}

// gridReport is the committed full-grid report, which the short grid is a
// subset of.
const gridReport = "../../results/flexcheck_grid.json"

// TestExhaustiveShortGrid is the PR-CI verification sweep over the short
// grid, with each configuration's explored state space pinned to its entry
// in the committed full-grid report. Skipped under -short (it takes tens of
// seconds); the nightly workflow runs the full grid via cmd/flexcheck.
func TestExhaustiveShortGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive grid sweep skipped in -short mode")
	}
	b, err := os.ReadFile(gridReport)
	if err != nil {
		t.Fatal(err)
	}
	var committed Report
	if err := json.Unmarshal(b, &committed); err != nil {
		t.Fatalf("%s: %v", gridReport, err)
	}
	pinned := make(map[Config]spaceCounts, len(committed.Configs))
	for _, c := range committed.Configs {
		pinned[c.Config] = countsOf(c)
	}
	rep, err := RunGrid(context.Background(), "short", ShortGrid(), Options{}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Configs {
		want, ok := pinned[c.Config]
		if !ok {
			t.Errorf("%s: no entry in %s", c.Config.Name(), gridReport)
		} else if got := countsOf(c); got != want {
			t.Errorf("%s: explored %+v, %s pins %+v", c.Config.Name(), got, gridReport, want)
		}
	}
	if rep.SoundnessDivergences != 0 {
		t.Errorf("SOUNDNESS BROKEN: %d knot members were provably live", rep.SoundnessDivergences)
	}
	if rep.CompletenessDivergences != 0 {
		t.Errorf("COMPLETENESS BROKEN: %d stuck states had no knot", rep.CompletenessDivergences)
	}
	if rep.TotalStates < 10000 {
		t.Errorf("short grid enumerated only %d canonical states, expected >= 10k", rep.TotalStates)
	}
	anyStuck := false
	for _, c := range rep.Configs {
		if c.StuckStates > 0 {
			anyStuck = true
		}
	}
	if !anyStuck {
		t.Error("no configuration in the short grid reached a true deadlock; the positive direction is untested")
	}
}

// TestDoomedIsStuck holds the message graph's doomed set, the local deadlock
// of Stramaglia, Keiren and Zantema, to ground truth on the short grid: in
// every expanded state with a blocked message, no message Doomed names may
// be live by the liveness DP (a set live bit is definite even under
// truncation). The converse does not hold and is not asserted: a stuck
// message whose deadlock has not formed yet still reaches an exit of the
// message graph, so the test only logs how many stuck messages are not yet
// doomed.
func TestDoomedIsStuck(t *testing.T) {
	var states, doomed, stuck, notDoomed int
	for _, cfg := range ShortGrid() {
		sy, err := cfg.build()
		if err != nil {
			t.Fatal(err)
		}
		ex := newExplorer(sy, DefaultOptions().MaxStates)
		if err := ex.explore(sy.initialStates()); err != nil {
			t.Fatal(err)
		}
		owners := make([]int8, sy.net.TotalVCs())
		mg := cwg.NewMsgGraph(sy.net.TotalVCs())
		var ids []message.ID
		for idx := range ex.states {
			st := &ex.states[idx]
			if !st.expanded || st.blocked == 0 {
				continue
			}
			s := decodeState(st.key, cfg.Messages)
			s.owners(owners)
			if err := sy.restore(&s, owners, nil); err != nil {
				t.Fatal(err)
			}
			ids = mg.Build(sy.det.Snapshot()).Doomed(ids[:0])
			var mask uint8
			for _, id := range ids {
				mask |= 1 << uint(id)
			}
			if live := mask & st.live; live != 0 {
				t.Fatalf("%s, state %d: Doomed says %v, the liveness DP proves live mask %#x",
					cfg.Name(), idx, ids, live)
			}
			stuckMask := st.blocked &^ st.live
			states++
			doomed += len(ids)
			stuck += bits.OnesCount8(stuckMask)
			notDoomed += bits.OnesCount8(stuckMask &^ mask)
		}
	}
	t.Logf("%d states with a blocked message: %d (state, message) pairs doomed, none live; %d of %d stuck pairs not yet doomed",
		states, doomed, notDoomed, stuck)
}

// TestCommittedReprosReplay re-judges every committed counterexample
// (results/repros) with the detector's own pass, as flexsim -repro does:
// each replays to at least one knot, no deadlock-set member is live by the
// file's ground truth, and the file's knot_dot is the first knot drawn
// again from the replayed analysis.
func TestCommittedReprosReplay(t *testing.T) {
	files, err := filepath.Glob("../../results/repros/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed repros (%v)", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			rep, err := LoadRepro(f)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := rep.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(rp.Analysis.Deadlocks) == 0 {
				t.Fatal("replay reports no knot")
			}
			for _, d := range rp.Analysis.Deadlocks {
				for _, id := range d.DeadlockSet {
					if rep.Live&(1<<uint(id)) != 0 {
						t.Errorf("deadlock set %v holds message %d, live by ground truth %#x", d.DeadlockSet, id, rep.Live)
					}
				}
			}
			if got := rp.Graph.KnotDOT(&rp.Analysis.Deadlocks[0], nil); got != rep.KnotDOT {
				t.Errorf("knot_dot differs from the replayed knot:\n got:\n%s\nwant:\n%s", got, rep.KnotDOT)
			}
		})
	}
}
