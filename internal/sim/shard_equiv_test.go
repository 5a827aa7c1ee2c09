package sim_test

// Shard-count equivalence: the parallel cycle engine must be bit-identical
// to the sequential engine for any shard count — same stats.Result, same
// trace event stream (order included), same incident post-mortems. This is
// the contract that makes Shards safe to exclude from the content-addressed
// cache key and safe to default from the machine's core count.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/message"
	"flexsim/internal/obs"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
)

// eventLog is a Tracer that retains the complete event stream.
type eventLog struct {
	evs []trace.Event
}

func (l *eventLog) Trace(e trace.Event) { l.evs = append(l.evs, e) }

// shardRun executes cfg at the given shard count and returns the canonical
// observable outputs: the Result JSON (wall-clock detector timing zeroed —
// it is the one legitimately nondeterministic field), the full trace event
// stream, and the incident post-mortem JSONL.
func shardRun(t *testing.T, cfg sim.Config, shards int) (string, []trace.Event, string) {
	t.Helper()
	log := &eventLog{}
	cfg.Shards = shards
	cfg.Tracer = log
	cfg.Incidents = &obs.IncidentLog{}
	cfg.IncidentDOT = true
	cfg.ForensicsDepth = 1 << 14
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Simulated())
	if err != nil {
		t.Fatal(err)
	}
	var inc strings.Builder
	if err := cfg.Incidents.WriteJSONL(&inc); err != nil {
		t.Fatal(err)
	}
	return string(b), log.evs, inc.String()
}

// assertShardEquivalent runs cfg at every shard count in shards and
// requires byte-identical outputs versus the first entry (the reference,
// conventionally 1).
func assertShardEquivalent(t *testing.T, cfg sim.Config, shards []int) {
	t.Helper()
	refRes, refEvs, refInc := shardRun(t, cfg, shards[0])
	for _, s := range shards[1:] {
		res, evs, inc := shardRun(t, cfg, s)
		if res != refRes {
			t.Errorf("shards=%d: stats.Result diverged from shards=%d\n ref: %s\n got: %s",
				s, shards[0], refRes, res)
		}
		if len(evs) != len(refEvs) {
			t.Errorf("shards=%d: %d trace events, reference has %d", s, len(evs), len(refEvs))
		} else {
			for i := range evs {
				if evs[i] != refEvs[i] {
					t.Errorf("shards=%d: trace event %d = %+v, reference %+v", s, i, evs[i], refEvs[i])
					break
				}
			}
		}
		if inc != refInc {
			t.Errorf("shards=%d: incident JSONL diverged from shards=%d", s, shards[0])
		}
	}
}

// equivBase is a fast deadlocking configuration: 4-ary 2-cube past
// saturation with recovery, small windows.
func equivBase() sim.Config {
	c := sim.Default()
	c.K = 4
	c.Load = 1.0
	c.WarmupCycles = 200
	c.MeasureCycles = 800
	return c
}

// TestShardEquivalence is the deterministic table-driven variant of
// FuzzShardEquivalence; it runs in -short mode.
func TestShardEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(*sim.Config)
		shards []int
	}{
		{"torus-tfar-saturated", func(c *sim.Config) {}, []int{1, 2, 4, 8}},
		{"torus-vc3-dateline-most", func(c *sim.Config) {
			c.VCs = 3
			c.Routing = "dateline-dor"
			c.VictimPolicy = "most"
			c.KnotCycles = true
		}, []int{1, 3, 8}},
		{"mesh-west-first-transpose", func(c *sim.Config) {
			c.Mesh = true
			c.Routing = "west-first"
			c.Traffic = "transpose"
			c.VCs = 2
		}, []int{1, 4}},
		{"irregular-updown-hotspot", func(c *sim.Config) {
			c.IrregularNodes = 24
			c.IrregularLinks = 10
			c.Routing = "updown"
			c.Traffic = "hotspot"
			c.HotspotFrac = 0.3
		}, []int{1, 5}},
		{"faulty-links-random-victim", func(c *sim.Config) {
			c.FaultLinkMTTF = 300
			c.FaultRepair = 150
			c.VictimPolicy = "random"
			c.RecoveryDrainRate = 0 // instant absorption
		}, []int{1, 2, 7}},
		{"workload-stencil", func(c *sim.Config) {
			c.Workload = "stencil"
			c.WorkloadPhases = 3
			c.ComputeDelay = 5
			c.WarmupCycles = 0
			c.MeasureCycles = 4000
		}, []int{1, 4}},
		{"misroute-far-invariants", func(c *sim.Config) {
			c.Routing = "misroute-far"
			c.VCs = 2
			c.MeasureCycles = 400
		}, []int{1, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := equivBase()
			tc.mut(&cfg)
			// The state contract is checked after every cycle; whether the
			// engine's skip gates skip only what they may is the lockstep
			// differential's question (network.FuzzEngineEquivalence).
			cfg.CheckInvariants = true
			assertShardEquivalent(t, cfg, tc.shards)
		})
	}
}

// traceResultDigest is the SHA-256 of a trace stream followed by the run's
// stats.Result with its two wall-clock histograms zeroed: what the
// fault-mutation tests below pin to a digest taken on an older engine.
func traceResultDigest(t *testing.T, evs []trace.Event, res *stats.Result) string {
	t.Helper()
	h := sha256.New()
	for _, ev := range evs {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	if err := json.NewEncoder(h).Encode(res.Simulated()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// parkedFaultDigest is the SHA-256 of TestParkedHeaderFaultMutation's trace
// stream and stats.Result as produced by the engine that re-routed every
// waiting header every cycle (commit f3157a8), before allocation was gated
// on wait-for-state changes.
const parkedFaultDigest = "53dd72be874d4f1c22ccb83d6618a2c4f5060ae978b87c790d5cd092abdb9dbe"

// TestParkedHeaderFaultMutation lands fault mutations between cycles on VCs
// that parked (blocked, not re-routed) headers want: a link down and up, a
// single-VC lockout and unlock. A parked header's candidate set changes
// under each of them with no VC being freed, so this is where a stale Wants
// would show; the outputs must stay byte-identical to the ungated engine's.
func TestParkedHeaderFaultMutation(t *testing.T) {
	events := []struct {
		ev fault.Event
		// hits must be in a parked header's Wants when ev is applied.
		hits message.VC
	}{
		{fault.Event{Cycle: 350, Kind: fault.LinkDown, Ch: 38}, 76},      // a VC of the downed link
		{fault.Event{Cycle: 400, Kind: fault.LinkUp, Ch: 38}, 72},        // the misroute fallback around it
		{fault.Event{Cycle: 500, Kind: fault.VCDown, Ch: 30, VC: 0}, 60}, // the locked VC
		{fault.Event{Cycle: 550, Kind: fault.VCUp, Ch: 30, VC: 0}, 61},   // its surviving sibling
	}
	for _, shards := range []int{1, 4} {
		cfg := equivBase()
		cfg.VCs = 2
		cfg.CheckInvariants = true
		cfg.Shards = shards
		log := &eventLog{}
		cfg.Tracer = log
		for _, e := range events {
			cfg.FaultEvents = append(cfg.FaultEvents, e.ev)
		}
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for i := 0; i < cfg.WarmupCycles+cfg.MeasureCycles; i++ {
			if i == cfg.WarmupCycles {
				r.StartMeasurement()
			}
			r.StepCycle() // applies the fault events due at the new cycle
			if next < len(events) && r.Net.Now() == events[next].ev.Cycle {
				parked := slices.ContainsFunc(r.Net.ActiveMessages(), func(m *message.Message) bool {
					return m.Blocked && slices.Contains(m.Wants, events[next].hits)
				})
				if !parked {
					t.Fatalf("shards=%d: no parked header wants VC %d at cycle %d; the case no longer tests what it claims",
						shards, events[next].hits, r.Net.Now())
				}
				next++
			}
		}
		res := r.Finish()
		if got := traceResultDigest(t, log.evs, res); got != parkedFaultDigest {
			t.Errorf("shards=%d: trace+result digest %s, want %s (%d events, %d killed, %d deadlocks)",
				shards, got, parkedFaultDigest, len(log.evs), res.Killed, res.Deadlocks)
		}
	}
}

// frozenFaultDigest is the SHA-256 of TestFrozenWormFaultMutation's trace
// stream and stats.Result as produced by the engine that walked every worm
// every cycle (commit f0d971d), before the frozen-worm gate.
const frozenFaultDigest = "587f067601e5ee081c7261e4610c08830e7a748ec66438eceed94d003f6e13f9"

// TestFrozenWormFaultMutation wedges TFAR with one VC and lands, between
// cycles, every mutation that reaches a worm without going through acquire
// on worms the frozen-worm gate is skipping: a detector-style Absorb, a link
// failure under one (it is killed), that link's repair and a single-VC
// lockout and unlock in front of others (their candidate sets change with no
// VC being freed). A skip that outlived any of them would show as a lost
// release, a late wake-up or a stale Wants; the outputs must stay
// byte-identical to the ungated engine's.
func TestFrozenWormFaultMutation(t *testing.T) {
	type kind int
	const (
		absorb kind = iota // Absorb vc's owner
		linkDown
		linkUp
		vcDown
		vcUp
	)
	// TFAR has one VC here, so a network VC id is its channel id.
	script := []struct {
		cycle int64
		kind  kind
		vc    message.VC
	}{
		{310, absorb, 36},
		{365, linkDown, 54},
		{385, linkUp, 54},
		{420, vcDown, 48},
		{440, vcUp, 48},
	}
	for _, shards := range []int{1, 4} {
		cfg := equivBase()
		cfg.VCs = 1
		cfg.CheckInvariants = true
		cfg.Shards = shards
		log := &eventLog{}
		cfg.Tracer = log
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net := r.Net
		// frozenWaiters lists the frozen worms with a blocked header.
		frozenWaiters := func() []*message.Message {
			var ms []*message.Message
			for _, m := range net.ActiveMessages() {
				if m.Status == message.Active && m.Frozen && m.Blocked {
					ms = append(ms, m)
				}
			}
			return ms
		}
		next := 0
		// reached, set by a repair, is checked one cycle later: some worm that
		// was frozen at the repair must have the repaired VC back in its
		// candidate set, or have been granted it.
		var reached func()
		for i := 0; i < cfg.WarmupCycles+cfg.MeasureCycles; i++ {
			if i == cfg.WarmupCycles {
				r.StartMeasurement()
			}
			r.StepCycle()
			if reached != nil {
				reached()
				reached = nil
			}
			if next == len(script) || net.Now() != script[next].cycle {
				continue
			}
			st := script[next]
			next++
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("shards=%d cycle %d: %s; the case no longer tests what it claims",
					shards, st.cycle, fmt.Sprintf(format, args...))
			}
			owner := net.Owner(st.vc)
			wanted := slices.ContainsFunc(frozenWaiters(), func(m *message.Message) bool {
				return slices.Contains(m.Wants, st.vc)
			})
			switch st.kind {
			case absorb, linkDown:
				if owner == nil || owner.Status != message.Active || !owner.Frozen {
					fail("VC %d is not held by a frozen worm (owner %v)", st.vc, owner)
				}
				if st.kind == absorb {
					net.Absorb(owner)
				} else {
					net.SetLinkDown(net.VCChannel(st.vc))
				}
			case vcDown:
				if !wanted {
					fail("no frozen worm wants VC %d", st.vc)
				}
				net.SetVCDown(net.VCChannel(st.vc), 0)
			case linkUp, vcUp:
				if st.kind == linkUp {
					net.SetLinkUp(net.VCChannel(st.vc))
				} else {
					net.SetVCUp(net.VCChannel(st.vc), 0)
				}
				before := frozenWaiters()
				reached = func() {
					if !slices.ContainsFunc(before, func(m *message.Message) bool {
						return slices.Contains(m.Wants, st.vc) || m.HeadVC() == st.vc
					}) {
						fail("the repair of VC %d reached none of the %d worms frozen at the time", st.vc, len(before))
					}
				}
			}
		}
		if next != len(script) {
			t.Fatalf("shards=%d: only %d of %d mutations applied", shards, next, len(script))
		}
		res := r.Finish()
		if got := traceResultDigest(t, log.evs, res); got != frozenFaultDigest {
			t.Errorf("shards=%d: trace+result digest %s, want %s (%d events, %d killed, %d recovered, %d deadlocks)",
				shards, got, frozenFaultDigest, len(log.evs), res.Killed, res.Recovered, res.Deadlocks)
		}
	}
}

// injectionGateDigest is the SHA-256 of TestInjectionGateFaultMutation's
// trace stream and stats.Result as produced by the engine that visited every
// non-empty source queue every cycle (commit d6ce13a), before the sequential
// engine stopped scanning queues behind an owned injection VC.
const injectionGateDigest = "97c821155cfb88dabba6979a64b4aa285d808528972ee5d06ab8793a57137276"

// TestInjectionGateFaultMutation saturates DOR with one VC until most nodes
// are backlogged behind an owned injection VC — the queues the sequential
// engine no longer scans — and lands, between cycles, every mutation that
// frees such a VC or needs such a queue looked at: an Absorb of a worm still
// holding its injection VC (the release must mark the node again), the
// failure of a waiting queue head's destination (the first fault: from it on
// every waiting queue is scanned, and the head is dropped on the next cycle,
// injection VC owned or not), the failure of a backlogged source, and a link
// failure and repair under a worm. The outputs must stay byte-identical to
// the engine that scanned every queue.
func TestInjectionGateFaultMutation(t *testing.T) {
	type kind int
	const (
		absorb      kind = iota // Absorb the first worm holding the injection VC of a backlogged node
		headDstDown             // SetNodeDown(arg): a waiting queue head is addressed to arg
		sourceDown              // SetNodeDown(arg): arg is backlogged behind its owned injection VC
		linkDown                // SetLinkDown(arg): a worm holds the link's VC
		linkUp
	)
	script := []struct {
		cycle int64
		kind  kind
		arg   int
	}{
		{300, absorb, 0},
		{340, headDstDown, 6},
		{380, sourceDown, 9},
		{420, linkDown, 7},
		{460, linkUp, 7},
	}
	for _, shards := range []int{1, 4} {
		cfg := equivBase()
		cfg.Routing = "dor"
		cfg.VCs = 1
		cfg.CheckInvariants = true
		cfg.Shards = shards
		log := &eventLog{}
		cfg.Tracer = log
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net := r.Net
		nodes := net.Topology().Nodes()
		// The source queues, rebuilt from the trace: a Queued event enters
		// one, an Injected event leaves it, and so does a Killed event for a
		// message still in one (a queue head dropped for its dead
		// destination).
		backlog := make([]int, nodes)
		queuedAt := map[message.ID]int{}
		seen := 0
		// update folds the new events in and returns the nodes whose queue
		// head was dropped.
		update := func() (dropped []int) {
			for _, ev := range log.evs[seen:] {
				node, waiting := queuedAt[ev.Msg]
				switch {
				case ev.Kind == trace.Queued:
					backlog[ev.Node]++
					queuedAt[ev.Msg] = ev.Node
				case waiting && (ev.Kind == trace.Injected || ev.Kind == trace.Killed):
					backlog[node]--
					delete(queuedAt, ev.Msg)
					if ev.Kind == trace.Killed {
						dropped = append(dropped, node)
					}
				}
			}
			seen = len(log.evs)
			return dropped
		}
		gated := func(node int) bool { return backlog[node] > 0 && net.Owner(net.InjVC(node)) != nil }
		next := 0
		// reached, set by a mutation, checks the next cycle's queue drops.
		var reached func(dropped []int)
		for i := 0; i < cfg.WarmupCycles+cfg.MeasureCycles; i++ {
			if i == cfg.WarmupCycles {
				r.StartMeasurement()
			}
			r.StepCycle()
			dropped := update()
			if reached != nil {
				reached(dropped)
				reached = nil
			}
			if next == len(script) || net.Now() != script[next].cycle {
				continue
			}
			st := script[next]
			next++
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("shards=%d cycle %d: %s; the case no longer tests what it claims",
					shards, st.cycle, fmt.Sprintf(format, args...))
			}
			switch st.kind {
			case absorb:
				behind := 0
				for node := 0; node < nodes; node++ {
					if gated(node) {
						behind++
					}
				}
				if 2*behind <= nodes {
					fail("only %d of %d nodes are backlogged behind an owned injection VC", behind, nodes)
				}
				i := slices.IndexFunc(net.ActiveMessages(), func(m *message.Message) bool {
					return m.Status == message.Active && m.Released == 0 && gated(m.Src)
				})
				if i < 0 {
					fail("no worm holds the injection VC of a backlogged node")
				}
				m := net.ActiveMessages()[i]
				if net.Owner(net.InjVC(m.Src)) != m {
					fail("%v does not own its source's injection VC", m)
				}
				net.Absorb(m)
			case headDstDown:
				if net.FaultsActive() != 0 {
					fail("a fault set already exists")
				}
				var owned []int
				for node := 0; node < nodes; node++ {
					if gated(node) {
						owned = append(owned, node)
					}
				}
				net.SetNodeDown(st.arg)
				reached = func(dropped []int) {
					if !slices.ContainsFunc(dropped, func(node int) bool { return slices.Contains(owned, node) }) {
						fail("no queue head behind an owned injection VC was dropped the cycle after node %d failed", st.arg)
					}
				}
			case sourceDown:
				if !gated(st.arg) {
					fail("node %d is not backlogged behind an owned injection VC", st.arg)
				}
				net.SetNodeDown(st.arg)
			case linkDown:
				if net.Owner(net.NetVC(topology.ChannelID(st.arg), 0)) == nil {
					fail("no worm holds channel %d", st.arg)
				}
				net.SetLinkDown(topology.ChannelID(st.arg))
			case linkUp:
				net.SetLinkUp(topology.ChannelID(st.arg))
			}
		}
		if next != len(script) {
			t.Fatalf("shards=%d: only %d of %d mutations applied", shards, next, len(script))
		}
		res := r.Finish()
		if got := traceResultDigest(t, log.evs, res); got != injectionGateDigest {
			t.Errorf("shards=%d: trace+result digest %s, want %s (%d events, %d killed, %d recovered, %d deadlocks)",
				shards, got, injectionGateDigest, len(log.evs), res.Killed, res.Recovered, res.Deadlocks)
		}
	}
}

// FuzzShardEquivalence fuzzes (topology, seed, vcs, load, victim policy,
// fault rate, shard count 2–8) and asserts byte-identical results versus
// the 1-shard reference.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(100), uint8(0), uint8(0), uint8(4))
	f.Add(uint64(7), uint8(1), uint8(2), uint8(80), uint8(1), uint8(0), uint8(3))
	f.Add(uint64(42), uint8(2), uint8(3), uint8(120), uint8(2), uint8(40), uint8(8))
	f.Add(uint64(1234), uint8(0), uint8(2), uint8(100), uint8(3), uint8(25), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, vcs, loadPct, policySel, mttf, shards uint8) {
		cfg := equivBase()
		cfg.Seed = seed%1000 + 1
		switch topoSel % 3 {
		case 1:
			cfg.Mesh = true
			cfg.Routing = "negative-first"
		case 2:
			cfg.IrregularNodes = 20
			cfg.IrregularLinks = 8
			cfg.Routing = "updown"
		}
		cfg.VCs = 1 + int(vcs%4)
		cfg.Load = float64(50+int(loadPct)%101) / 100 // 0.50 .. 1.50
		cfg.VictimPolicy = []string{"oldest", "most", "fewest", "random"}[policySel%4]
		if mttf > 0 {
			cfg.FaultLinkMTTF = 100 + int(mttf)*10
			cfg.FaultRepair = 100
		}
		s := 2 + int(shards)%7 // 2..8
		assertShardEquivalent(t, cfg, []int{1, s})
	})
}
