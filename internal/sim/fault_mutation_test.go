package sim_test

// Fault mutations landed between cycles on the gated engine: each test pins
// the trace stream and stats.Result to a digest taken on an older engine
// that re-routed, walked or scanned everything every cycle, so a skip gate
// that skips what it may not shows as a changed byte.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/message"
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
	cfg := equivBase()
	cfg.VCs = 2
	cfg.CheckInvariants = true
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
				t.Fatalf("no parked header wants VC %d at cycle %d; the case no longer tests what it claims",
					events[next].hits, r.Net.Now())
			}
			next++
		}
	}
	res := r.Finish()
	if got := traceResultDigest(t, log.evs, res); got != parkedFaultDigest {
		t.Errorf("trace+result digest %s, want %s (%d events, %d killed, %d deadlocks)",
			got, parkedFaultDigest, len(log.evs), res.Killed, res.Deadlocks)
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
	cfg := equivBase()
	cfg.VCs = 1
	cfg.CheckInvariants = true
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
			t.Fatalf("cycle %d: %s; the case no longer tests what it claims",
				st.cycle, fmt.Sprintf(format, args...))
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
		t.Fatalf("only %d of %d mutations applied", next, len(script))
	}
	res := r.Finish()
	if got := traceResultDigest(t, log.evs, res); got != frozenFaultDigest {
		t.Errorf("trace+result digest %s, want %s (%d events, %d killed, %d recovered, %d deadlocks)",
			got, frozenFaultDigest, len(log.evs), res.Killed, res.Recovered, res.Deadlocks)
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
	cfg := equivBase()
	cfg.Routing = "dor"
	cfg.VCs = 1
	cfg.CheckInvariants = true
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
			t.Fatalf("cycle %d: %s; the case no longer tests what it claims",
				st.cycle, fmt.Sprintf(format, args...))
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
		t.Fatalf("only %d of %d mutations applied", next, len(script))
	}
	res := r.Finish()
	if got := traceResultDigest(t, log.evs, res); got != injectionGateDigest {
		t.Errorf("trace+result digest %s, want %s (%d events, %d killed, %d recovered, %d deadlocks)",
			got, injectionGateDigest, len(log.evs), res.Killed, res.Recovered, res.Deadlocks)
	}
}
