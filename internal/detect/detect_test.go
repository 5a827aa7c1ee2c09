package detect

import (
	"strings"
	"testing"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
	"flexsim/internal/network"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// ringNet builds the deterministic 4-message deadlock on a 4-node
// unidirectional ring (each message two hops, all blocked on each other).
func ringNet(t *testing.T) *network.Network {
	t.Helper()
	topo := topology.MustNew(4, 1, false)
	n, err := network.New(network.Params{
		Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
		RecoveryDrainRate: 1, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		n.Inject(s, (s+2)%4, 8)
	}
	for i := 0; i < 20; i++ {
		n.Step()
	}
	return n
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]VictimPolicy{
		"": OldestBlocked, "oldest": OldestBlocked, "most": MostResources,
		"fewest": FewestResources, "random": RandomVictim,
		// Case-insensitive, whitespace-tolerant.
		"Oldest": OldestBlocked, "MOST": MostResources,
		"Fewest": FewestResources, " random ": RandomVictim,
		"OlDeSt": OldestBlocked,
	}
	for name, want := range cases {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	for _, bogus := range []string{"bogus", "newest", "old est"} {
		_, err := ParsePolicy(bogus)
		if err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", bogus)
		}
		// The error must list every valid policy so the CLI message is
		// self-correcting.
		for _, name := range PolicyNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParsePolicy(%q) error %q does not list %q", bogus, err, name)
			}
		}
	}
	for _, p := range []VictimPolicy{OldestBlocked, MostResources, FewestResources, RandomVictim} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestDetectorFindsPlantedDeadlock(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Policy: OldestBlocked, Recover: false,
		CountKnotCycles: true, KeepEvents: true})
	an := d.DetectNow()
	if len(an.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d, want 1", len(an.Deadlocks))
	}
	if d.Stats.Deadlocks != 1 || d.Stats.SingleCycle != 1 {
		t.Errorf("stats: %+v", d.Stats)
	}
	if d.Stats.SumDeadlockSet != 4 {
		t.Errorf("SumDeadlockSet = %d, want 4", d.Stats.SumDeadlockSet)
	}
	if len(d.Events) != 1 || d.Events[0].Victim != -1 {
		t.Errorf("events: %+v (recovery disabled must record victim -1)", d.Events)
	}
}

func TestDetectorRecovers(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Policy: OldestBlocked, Recover: true,
		CountKnotCycles: true, KeepEvents: true})
	an := d.DetectNow()
	if len(an.Deadlocks) != 1 {
		t.Fatal("no deadlock found")
	}
	ev := d.Events[0]
	if ev.Victim < 0 {
		t.Fatal("no victim selected")
	}
	// The victim must come from the deadlock set, never the dependents.
	inSet := false
	for _, id := range ev.DeadlockSet {
		if id == ev.Victim {
			inSet = true
		}
	}
	if !inSet {
		t.Fatalf("victim %d not in deadlock set %v", ev.Victim, ev.DeadlockSet)
	}
	for i := 0; i < 500; i++ {
		n.Step()
	}
	if n.DeliveredCount != 3 || n.RecoveredCount != 1 {
		t.Fatalf("after recovery: delivered=%d recovered=%d", n.DeliveredCount, n.RecoveredCount)
	}
}

func TestVictimPolicies(t *testing.T) {
	// Build the ring deadlock where message resources differ: give one
	// message a head start so it owns more VCs.
	build := func() *network.Network {
		topo := topology.MustNew(6, 1, false)
		n, err := network.New(network.Params{
			Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
			RecoveryDrainRate: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Three messages whose held-channel chains cover the ring with
		// different lengths: m0 holds c0,c1,c2 and wants c3 (owned by
		// m1, holding c3,c4 and wanting c5), which m2 owns while
		// wanting c0 — a knot with distinct resource counts per member.
		n.Inject(0, 4, 12)
		n.Inject(3, 0, 12)
		n.Inject(5, 2, 12)
		for i := 0; i < 40; i++ {
			n.Step()
		}
		return n
	}
	n := build()
	det := mustNew(t, n, Config{Every: 50, Policy: MostResources, Recover: false, KeepEvents: true})
	an := det.DetectNow()
	if len(an.Deadlocks) == 0 {
		t.Fatal("staggered scenario did not deadlock")
	}
	dl := an.Deadlocks[0]
	byID := map[message.ID]*message.Message{}
	for _, m := range n.ActiveMessages() {
		byID[m.ID] = m
	}
	most := det.selectVictim(&dl)
	for _, id := range dl.DeadlockSet {
		if byID[id].OwnedCount() > most.OwnedCount() {
			t.Errorf("MostResources chose %d VCs, %d available", most.OwnedCount(), byID[id].OwnedCount())
		}
	}
	det.cfg.Policy = FewestResources
	fewest := det.selectVictim(&dl)
	for _, id := range dl.DeadlockSet {
		if byID[id].OwnedCount() < fewest.OwnedCount() {
			t.Errorf("FewestResources chose %d VCs, %d available", fewest.OwnedCount(), byID[id].OwnedCount())
		}
	}
	det.cfg.Policy = RandomVictim
	if det.selectVictim(&dl) == nil {
		t.Error("RandomVictim chose nothing")
	}
	det.cfg.Policy = OldestBlocked
	oldest := det.selectVictim(&dl)
	for _, id := range dl.DeadlockSet {
		if byID[id].BlockedSince < oldest.BlockedSince {
			t.Error("OldestBlocked did not pick the longest-blocked message")
		}
	}
}

// TestSelectVictimAllocatesNothing: once its candidate scratch is warm,
// choosing a victim allocates nothing under any policy.
func TestSelectVictimAllocatesNothing(t *testing.T) {
	d := mustNew(t, ringNet(t), Config{Every: 50})
	an := d.DetectNow()
	if len(an.Deadlocks) == 0 {
		t.Fatal("planted ring deadlock not detected")
	}
	dl := &an.Deadlocks[0]
	for _, p := range []VictimPolicy{OldestBlocked, MostResources, FewestResources, RandomVictim} {
		d.cfg.Policy = p
		if d.selectVictim(dl) == nil {
			t.Fatalf("%v chose nothing", p)
		}
		if allocs := testing.AllocsPerRun(100, func() { d.selectVictim(dl) }); allocs != 0 {
			t.Errorf("%v: selectVictim allocates %.0f times per call once warm", p, allocs)
		}
	}
}

func TestTickPeriod(t *testing.T) {
	n := ringNet(t) // Now() == 20 after setup
	d := mustNew(t, n, Config{Every: 7, Recover: false})
	for i := 0; i < 70; i++ {
		n.Step()
		d.Tick()
	}
	// Cycles 21..90 contain exactly the multiples of 7 in that range.
	want := int64(0)
	for c := int64(21); c <= 90; c++ {
		if c%7 == 0 {
			want++
		}
	}
	if d.Stats.Invocations != want {
		t.Fatalf("invocations = %d, want %d", d.Stats.Invocations, want)
	}
}

func TestCensusSamples(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Recover: false, CycleCensus: true})
	d.DetectNow()
	d.DetectNow()
	d.Wait()
	if d.Stats.CensusSamples != 2 {
		t.Fatalf("census samples = %d", d.Stats.CensusSamples)
	}
	if d.Stats.SumCycles < 2 {
		t.Errorf("census found %d cycles over two passes of a deadlocked ring", d.Stats.SumCycles)
	}
}

func TestResetStats(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Recover: false, KeepEvents: true, CycleCensus: true})
	d.DetectNow()
	if d.Stats.Deadlocks == 0 {
		t.Fatal("setup found no deadlock")
	}
	d.ResetStats()
	if d.Stats.Deadlocks != 0 || len(d.Events) != 0 || d.Stats.CensusSamples != 0 {
		t.Fatal("ResetStats left residue")
	}
}

func TestRecoveringMessageNotReblocked(t *testing.T) {
	// After recovery starts, the same knot must not be re-detected: the
	// victim's chain loses its dashed arcs.
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Policy: OldestBlocked, Recover: true})
	d.DetectNow()
	if d.Stats.Deadlocks != 1 {
		t.Fatal("first pass found no deadlock")
	}
	// Immediately re-detect (recovery drain has not finished): the broken
	// knot must not be counted again.
	an := d.DetectNow()
	if len(an.Deadlocks) != 0 {
		t.Fatalf("broken knot re-detected: %+v", an.Deadlocks)
	}
}

func TestSnapshotSkipsResourceless(t *testing.T) {
	topo := topology.MustNew(4, 1, false)
	n, err := network.New(network.Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{}})
	if err != nil {
		t.Fatal(err)
	}
	n.Inject(0, 2, 8)
	d := mustNew(t, n, Config{Every: 50})
	if snap := d.Snapshot(); len(snap) != 0 {
		t.Fatalf("queued-only network produced snapshot of %d", len(snap))
	}
	n.Step()
	snap := d.Snapshot()
	if len(snap) != 1 || len(snap[0].Owned) == 0 {
		t.Fatalf("snapshot after injection: %+v", snap)
	}
	g := cwg.Build(snap)
	if g.NumVertices() == 0 {
		t.Fatal("snapshot built empty graph")
	}
}

// captureObserver records observations for tests.
type captureObserver struct {
	obs []Observation
	// copies of the per-call deadlock sizes (Deadlock itself must not be
	// retained past the call).
	deadlockSets []int
	dots         []string
}

func (c *captureObserver) ObserveDeadlock(o Observation) {
	c.obs = append(c.obs, o)
	c.deadlockSets = append(c.deadlockSets, len(o.Deadlock.DeadlockSet))
	c.dots = append(c.dots, o.KnotDOT)
}

func TestObserverNotified(t *testing.T) {
	n := ringNet(t)
	cap := &captureObserver{}
	d := mustNew(t, n, Config{Every: 50, Policy: OldestBlocked, Recover: true,
		CountKnotCycles: true, Observer: cap, SnapshotDOT: true})
	d.DetectNow()
	if len(cap.obs) != 1 {
		t.Fatalf("observer called %d times, want 1", len(cap.obs))
	}
	o := cap.obs[0]
	if o.Victim < 0 {
		t.Error("recovery enabled but no victim reported")
	}
	if o.Policy != OldestBlocked {
		t.Errorf("policy = %v", o.Policy)
	}
	if cap.deadlockSets[0] != 4 {
		t.Errorf("deadlock set size = %d, want 4", cap.deadlockSets[0])
	}
	if !strings.Contains(cap.dots[0], "digraph knot") {
		t.Errorf("KnotDOT not captured: %q", cap.dots[0])
	}
}

func TestObserverVictimWithoutRecovery(t *testing.T) {
	n := ringNet(t)
	cap := &captureObserver{}
	d := mustNew(t, n, Config{Every: 50, Recover: false, Observer: cap})
	d.DetectNow()
	if len(cap.obs) != 1 {
		t.Fatalf("observer called %d times, want 1", len(cap.obs))
	}
	if cap.obs[0].Victim != -1 {
		t.Errorf("victim = %d, want -1 with recovery off", cap.obs[0].Victim)
	}
	if cap.obs[0].KnotDOT != "" {
		t.Error("KnotDOT rendered without SnapshotDOT")
	}
}

func TestPassTimingRecorded(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, Recover: false})
	d.DetectNow()
	if d.Stats.DetectBuildTime.Count() != 1 || d.Stats.DetectAnalyzeTime.Count() != 1 {
		t.Fatalf("timing counts = %d/%d, want 1/1",
			d.Stats.DetectBuildTime.Count(), d.Stats.DetectAnalyzeTime.Count())
	}
	// Gated pass: nothing is rebuilt, so nothing is timed. The ring is
	// deadlocked so the gate never engages here; use ResetStats+gate test
	// indirectly: just assert reset clears and re-grows.
	d.ResetStats()
	if d.Stats.DetectBuildTime.Count() != 0 {
		t.Error("ResetStats did not clear timing")
	}
	d.DetectNow()
	if d.Stats.DetectBuildTime.Count() != 1 {
		t.Error("timing not recorded after reset")
	}
}

// observerFunc adapts a closure to the Observer interface.
type observerFunc func(Observation)

func (f observerFunc) ObserveDeadlock(o Observation) { f(o) }

// TestOnPassFullReport: a full pass reports its cycle, timings, and
// deadlock count through the OnPass hook.
func TestOnPassFullReport(t *testing.T) {
	n := ringNet(t)
	var passes []PassInfo
	d := mustNew(t, n, Config{Every: 50, Recover: false,
		OnPass: func(p PassInfo) { passes = append(passes, p) }})
	d.DetectNow()
	if len(passes) != 1 {
		t.Fatalf("OnPass called %d times, want 1", len(passes))
	}
	p := passes[0]
	if p.Gated {
		t.Error("first pass reported as gated")
	}
	if p.Cycle != n.Now() || p.Deadlocks != 1 {
		t.Errorf("pass = %+v, want cycle %d with 1 deadlock", p, n.Now())
	}
	if p.BuildNs < 0 || p.AnalyzeNs < 0 {
		t.Errorf("negative timings: %+v", p)
	}
}

// TestOnPassGated: a change-gated invocation still fires OnPass, flagged
// gated with no rebuild timings, so trace timelines show every pass.
func TestOnPassGated(t *testing.T) {
	topo := topology.MustNew(4, 1, true)
	n, err := network.New(network.Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{}})
	if err != nil {
		t.Fatal(err)
	}
	var passes []PassInfo
	d := mustNew(t, n, Config{Every: 50, Recover: true,
		OnPass: func(p PassInfo) { passes = append(passes, p) }})
	d.DetectNow() // full, clean: arms the gate
	d.DetectNow() // epoch unchanged: gated
	if len(passes) != 2 {
		t.Fatalf("OnPass called %d times, want 2", len(passes))
	}
	if passes[0].Gated || !passes[1].Gated {
		t.Fatalf("gating sequence = %v/%v, want full then gated", passes[0].Gated, passes[1].Gated)
	}
	if g := passes[1]; g.BuildNs != 0 || g.AnalyzeNs != 0 || g.Deadlocks != 0 {
		t.Errorf("gated pass carries work: %+v", g)
	}
	if d.Stats.GatedInvocations != 1 {
		t.Errorf("Stats.GatedInvocations = %d", d.Stats.GatedInvocations)
	}
}

// TestObserverSeesPreRecoveryState: the observer fires after victim
// selection but before Absorb, so forensic observers can replay from the
// intact deadlocked state (the victim is still blocked and Active).
func TestObserverSeesPreRecoveryState(t *testing.T) {
	n := ringNet(t)
	var victim message.ID = -1
	d := mustNew(t, n, Config{Every: 50, Recover: true,
		Observer: observerFunc(func(o Observation) {
			victim = o.Victim
			for _, m := range n.ActiveMessages() {
				if m.ID == o.Victim {
					if !m.Blocked || m.Status != message.Active {
						t.Errorf("observer saw victim %d already mutated: blocked=%v status=%v",
							m.ID, m.Blocked, m.Status)
					}
					return
				}
			}
			t.Errorf("victim %d not found live during observation", o.Victim)
		})})
	d.DetectNow()
	if victim < 0 {
		t.Fatal("observer never fired with a victim")
	}
	// After the pass returns, recovery has started: the victim is now
	// absorbing, not blocked.
	for _, m := range n.ActiveMessages() {
		if m.ID == victim {
			if m.Blocked || m.Status != message.Recovering {
				t.Fatalf("victim %d not recovering after pass: blocked=%v status=%v",
					m.ID, m.Blocked, m.Status)
			}
			return
		}
	}
	t.Fatal("victim vanished immediately after the pass")
}
