package network

// The differential: the engine and the reference engine (refengine_test.go)
// stepped in lockstep on identical inputs — the same Inject calls, the same
// fault mutations and the same Absorb victims — with the whole state compared
// after every cycle. Any skip gate the engine adds is covered by it without an
// oracle of its own.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flexsim/internal/message"
	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
	"flexsim/internal/traffic"
)

const (
	equivCycles = 300 // cycles per lockstep run
	victimEvery = 50  // the Absorb rule runs every victimEvery cycles ...
	victimWait  = 20  // ... on the longest-blocked header blocked at least this long
)

// lockstep is an engine and a reference engine fed the same inputs.
type lockstep struct {
	n       *Network
	ref     *refNet
	retired []*message.Message // what the engine's OnDeliver saw since the last compare
	repairs map[faultKind][]func()
	applied int // mutations that found a target
}

func newLockstep(p Params) (*lockstep, error) {
	n, err := New(p)
	if err != nil {
		return nil, err
	}
	ls := &lockstep{n: n, ref: newRefNet(p), repairs: map[faultKind][]func(){}}
	n.OnDeliver = func(m *message.Message) { ls.retired = append(ls.retired, m) }
	return ls, nil
}

func (ls *lockstep) inject(src, dst, length int) {
	ls.n.Inject(src, dst, length)
	ls.ref.Inject(src, dst, length)
}

// step advances both engines one cycle and compares them. A panic in either
// is reported as the cycle's divergence.
func (ls *lockstep) step() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cycle %d: panic: %v", ls.n.Now(), p)
		}
	}()
	ls.n.Step()
	ls.ref.step()
	err = ls.ref.diff(ls.n, ls.retired)
	ls.retired = ls.retired[:0]
	return err
}

// refOf returns the reference's copy of an active message.
func (ls *lockstep) refOf(m *message.Message) *refMsg {
	return ls.ref.active[slices.IndexFunc(ls.ref.active, func(rm *refMsg) bool { return rm.id == m.ID })]
}

func (ls *lockstep) absorb(m *message.Message) {
	ls.n.Absorb(m)
	ls.ref.Absorb(ls.refOf(m))
}

func (ls *lockstep) kill(m *message.Message) {
	ls.n.Kill(m)
	ls.ref.Kill(ls.refOf(m))
}

func (ls *lockstep) setLink(ch topology.ChannelID, down bool) {
	if down {
		ls.n.SetLinkDown(ch)
		ls.repairs[linkUp] = append(ls.repairs[linkUp], func() { ls.setLink(ch, false) })
	} else {
		ls.n.SetLinkUp(ch)
	}
	ls.ref.SetLink(ch, down)
}

func (ls *lockstep) setVC(vc message.VC, down bool) {
	ch, v := ls.n.VCChannel(vc), ls.n.VCIndex(vc)
	if down {
		ls.n.SetVCDown(ch, v)
		ls.repairs[vcUp] = append(ls.repairs[vcUp], func() { ls.setVC(vc, false) })
	} else {
		ls.n.SetVCUp(ch, v)
	}
	ls.ref.SetVC(ch, v, down)
}

func (ls *lockstep) setNode(node int, down bool) {
	if down {
		ls.n.SetNodeDown(node)
		ls.repairs[nodeUp] = append(ls.repairs[nodeUp], func() { ls.setNode(node, false) })
	} else {
		ls.n.SetNodeUp(node)
	}
	ls.ref.SetNode(node, down)
}

// absorbLongestBlocked is the victim rule a detector stands in for: the header
// blocked longest, if it has waited victimWait cycles, lowest ID on a tie.
func (ls *lockstep) absorbLongestBlocked() {
	var victim *message.Message
	for _, m := range ls.n.ActiveMessages() {
		if m.Status == message.Active && m.Blocked && ls.n.Now()-m.BlockedSince >= victimWait &&
			(victim == nil || m.BlockedSince < victim.BlockedSince) {
			victim = m
		}
	}
	if victim != nil {
		ls.absorb(victim)
	}
}

// faultKind is one between-cycle mutation, aimed at live state: the
// situations in which a skip gate could outlive what it skips.
type faultKind int

const (
	linkDownWanted     faultKind = iota // fail a channel a blocked header wants
	vcDownWanted                        // lock a VC a blocked header wants
	linkDownFrozen                      // fail a channel under a frozen worm
	absorbFrozen                        // absorb a frozen worm
	absorbInjHolder                     // absorb a worm holding the injection VC of a backlogged node
	killBlocked                         // kill a worm whose header is blocked
	nodeDownHeadDst                     // fail the destination of a queue head waiting behind an owned injection VC
	nodeDownBacklogged                  // fail a node backlogged behind its owned injection VC
	linkUp                              // repair the oldest failed link
	vcUp                                // unlock the oldest locked VC
	nodeUp                              // restart the oldest failed node
	numFaultKinds
)

// faultScripts are the three fault-mutation scenarios of the sim package's
// digest tests, as cycles at which each mutation lands: faults under parked
// headers; an absorb, a link failure and a repair around frozen worms; the
// injection gate's absorb and node failures.
var faultScripts = map[int][]struct {
	cycle int64
	kind  faultKind
}{
	1: {{120, linkDownWanted}, {150, linkUp}, {180, vcDownWanted}, {210, vcUp}, {240, linkDownWanted}, {270, linkUp}},
	2: {{120, absorbFrozen}, {150, linkDownFrozen}, {170, linkUp}, {200, vcDownWanted}, {220, vcUp}},
	3: {{120, absorbInjHolder}, {150, nodeDownHeadDst}, {180, nodeDownBacklogged}, {210, linkDownFrozen}, {240, linkUp}},
}

// fault applies one mutation of the given kind to both engines, its target
// drawn by r from the engine's state (which equals the reference's: the
// states were just compared). A kind with no target in this state is a no-op.
func (ls *lockstep) fault(kind faultKind, r *rng.Source) {
	n := ls.n
	var msgs []*message.Message
	var vcs []message.VC
	var nodes []int
	backlogged := func(node int) bool { return n.queues[node].len() > 0 && n.Owner(n.InjVC(node)) != nil }
	for _, m := range n.ActiveMessages() {
		if m.Status != message.Active {
			continue
		}
		switch {
		case kind == linkDownWanted || kind == vcDownWanted:
			if m.Blocked {
				vcs = append(vcs, m.Wants...)
			}
		case kind == linkDownFrozen && m.Frozen:
			for _, h := range m.Hops[m.Released:] {
				if !n.IsInjection(h.VC) {
					vcs = append(vcs, h.VC)
				}
			}
		case kind == absorbFrozen && m.Frozen, kind == absorbInjHolder && m.Released == 0 && backlogged(m.Src),
			kind == killBlocked && m.Blocked:
			msgs = append(msgs, m)
		}
	}
	for node := range n.queues {
		if kind == nodeDownHeadDst && backlogged(node) {
			nodes = append(nodes, n.queues[node].peek().Dst)
		} else if kind == nodeDownBacklogged && backlogged(node) {
			nodes = append(nodes, node)
		}
	}
	ls.applied++
	switch {
	case kind == linkUp || kind == vcUp || kind == nodeUp:
		if q := ls.repairs[kind]; len(q) > 0 {
			ls.repairs[kind] = q[1:]
			q[0]()
		} else {
			ls.applied--
		}
	case len(vcs) > 0 && kind == vcDownWanted:
		ls.setVC(vcs[r.Intn(len(vcs))], true)
	case len(vcs) > 0:
		ls.setLink(n.VCChannel(vcs[r.Intn(len(vcs))]), true)
	case len(msgs) > 0 && kind == killBlocked:
		ls.kill(msgs[r.Intn(len(msgs))])
	case len(msgs) > 0:
		ls.absorb(msgs[r.Intn(len(msgs))])
	case len(nodes) > 0:
		ls.setNode(nodes[r.Intn(len(nodes))], true)
	default:
		ls.applied--
	}
}

// equivInput is a fuzz input, field for field: each byte is reduced into its
// parameter's range by equivInput.decode.
type equivInput struct {
	seed                                            uint64
	topo, k, n, algo, vcs, depth, length, load, pat uint8
	faults, recovery, start                         uint8
}

func (in equivInput) String() string {
	type fields equivInput
	return fmt.Sprintf("%+v", fields(in))
}

// equivCase is a decoded input.
type equivCase struct {
	p       Params
	length  int
	load    float64
	pattern traffic.Pattern
	faults  int  // 0 none; 1-3 faultScripts; 4-7 a random mutation every 10×(faults-2) cycles
	recover bool // run the Absorb rule
	repro   []InjectedMessage
}

// reproFiles are the model checker's minimized deadlock states.
func reproFiles() []string {
	files, _ := filepath.Glob("../../results/repros/*.json")
	return files
}

// decode builds the physics: topology (uni/bi torus, mesh or irregular; k ≤ 8,
// n ≤ 3), a routing relation legal on it (the first from the chosen one, in
// routing.Names order, that the topology admits; VCs are raised to its
// minimum), VCs, buffer depth, message length, load, traffic pattern, fault
// schedule and recovery.
// A nonzero start replaces the physics with one of results/repros' states.
func (in equivInput) decode() (equivCase, error) {
	c := equivCase{
		length:  1 + int(in.length%32),
		load:    float64(in.load%151) / 100,
		faults:  int(in.faults % 8),
		recover: in.recovery%4 != 0,
		p: Params{VCs: 1 + int(in.vcs%4), BufferDepth: 1 + int(in.depth%8), RecoveryDrainRate: max(0, int(in.recovery%4)-1),
			CheckInvariants: true},
	}
	k, dims := 2+int(in.k%7), 1+int(in.n%3)
	var err error
	switch in.topo % 4 {
	case 0:
		c.p.Topo, err = topology.New(k, dims, false)
	case 1:
		c.p.Topo, err = topology.New(k, dims, true)
	case 2:
		c.p.Topo, err = topology.NewMesh(k, dims)
	default:
		c.p.Topo, err = topology.NewIrregular(k+4*dims, k, in.seed)
	}
	if err != nil {
		return c, err
	}
	algo := routing.Names()[int(in.algo)%len(routing.Names())]
	if s := int(in.start % 7); s > 0 {
		var f struct {
			Config struct {
				Topology    string `json:"topology"`
				K           int    `json:"k"`
				VCs         int    `json:"vcs"`
				Routing     string `json:"routing"`
				MsgLen      int    `json:"msg_len"`
				BufferDepth int    `json:"buffer_depth"`
			} `json:"config"`
			Messages []InjectedMessage `json:"messages"`
		}
		b, err := os.ReadFile(reproFiles()[s-1])
		if err != nil {
			return c, err
		}
		if err := json.Unmarshal(b, &f); err != nil || f.Config.Topology != "ring-uni" {
			return c, fmt.Errorf("repro %d: %v (topology %q)", s, err, f.Config.Topology)
		}
		c.p.Topo = topology.MustNew(f.Config.K, 1, false)
		algo, c.p.VCs, c.length, c.p.BufferDepth = f.Config.Routing, f.Config.VCs, f.Config.MsgLen, f.Config.BufferDepth
		c.repro = f.Messages
	}
	for i := range routing.Names() {
		a, err := routing.ByName(algo)
		if err != nil {
			return c, err
		}
		if v, ok := a.(routing.TopologyValidator); !ok || v.ValidateTopo(c.p.Topo) == nil {
			c.p.Routing = a
			c.p.VCs = max(c.p.VCs, a.MinVCs())
			break
		}
		algo = routing.Names()[(int(in.algo)+i+1)%len(routing.Names())]
	}
	name := traffic.Names()[int(in.pat)%len(traffic.Names())]
	if c.pattern, err = traffic.ByName(name, c.p.Topo, 0); err != nil {
		c.pattern = traffic.NewUniform(c.p.Topo)
	}
	return c, nil
}

// runEquiv runs one input in lockstep for equivCycles cycles, failing at the
// first divergence.
func runEquiv(t *testing.T, in equivInput) {
	c, err := in.decode()
	if err != nil {
		t.Fatalf("%v: %v", in, err)
	}
	ls, err := newLockstep(c.p)
	if err != nil {
		t.Fatalf("%v: %v", in, err)
	}
	if c.repro != nil {
		if err := ls.n.RestoreState(0, c.repro); err != nil {
			t.Fatal(err)
		}
		for _, im := range c.repro {
			restoreRef(ls.ref, im)
		}
		if err := ls.ref.diff(ls.n, nil); err != nil {
			t.Fatalf("%v: restored state: %v", in, err)
		}
	}
	proc := traffic.NewProcess(c.p.Topo, c.pattern, c.load, traffic.Fixed(c.length), rng.New(in.seed))
	r := rng.New(in.seed ^ 0xfa17)
	for i := 0; i < equivCycles; i++ {
		proc.Generate(ls.inject)
		if err := ls.step(); err != nil {
			t.Fatalf("%v (%s, %d VCs): %v", in, c.p.Routing.Name(), c.p.VCs, err)
		}
		now := ls.n.Now()
		if c.recover && now%victimEvery == 0 {
			ls.absorbLongestBlocked()
		}
		for _, e := range faultScripts[c.faults] {
			if e.cycle == now {
				ls.fault(e.kind, r)
			}
		}
		if c.faults >= 4 && now%int64(10*(c.faults-2)) == 0 {
			ls.fault(faultKind(r.Intn(int(numFaultKinds))), r)
		}
	}
	n := ls.n
	t.Logf("%s, %d VCs: %d delivered, %d recovered, %d killed (%d unroutable), %d mutations, %d blocked at the end",
		c.p.Routing.Name(), c.p.VCs, n.DeliveredCount, n.RecoveredCount, n.KilledCount, n.UnroutableCount,
		ls.applied, n.BlockedCount())
}

// restoreRef installs im in the reference as RestoreState installs it in the
// engine: queued at its source when its path is empty, else active, owning
// the path with the given occupancies.
func restoreRef(r *refNet, im InjectedMessage) {
	m := &refMsg{id: im.ID, src: im.Src, dst: im.Dst, length: im.Len, curDim: -1,
		srcRemaining: im.SrcRemaining, consumed: im.Consumed, crossed: im.Crossed,
		blocked: im.Blocked, blockedSince: im.BlockedSince, wants: im.Wants}
	r.nextID = max(r.nextID, m.id+1)
	if len(im.Path) == 0 {
		r.queues[m.src] = append(r.queues[m.src], m)
		return
	}
	m.status = refActive
	for i, vc := range im.Path {
		departed := m.consumed // the flits past this hop
		for _, o := range im.Occ[i+1:] {
			departed += int(o)
		}
		m.path = append(m.path, refHop{vc: vc, occ: int(im.Occ[i]), departed: departed})
		r.owner[vc] = m
	}
	if ch := r.channel(im.Path[len(im.Path)-1]); ch != topology.None {
		m.curDim = r.topo.ChannelDim(ch)
	}
	if m.blocked {
		r.blocked++
	}
	r.active = append(r.active, m)
}

// equivCorpus seeds FuzzEngineEquivalence. algo and pat are indexes into
// routing.Names and traffic.Names; recovery 2 is the paper's drain rate of
// one flit per cycle.
func equivCorpus() []equivInput {
	algo := func(name string) uint8 { return uint8(slices.Index(routing.Names(), name)) }
	pat := func(name string) uint8 { return uint8(slices.Index(traffic.Names(), name)) }
	const bi, uni, mesh, irregular = 1, 0, 2, 3
	const k4, k8, n1, n2, n3, vc1, vc2, vc3, buf2, len32 = 2, 6, 0, 1, 2, 0, 1, 2, 1, 31
	in := []equivInput{
		// The bench workloads' physics on an 8-ary 2-cube (the tiny points
		// on a 4-ary one): subsat-sweep, saturated-sweep, bignet-run,
		// resweep-warm and fleet-loopback.
		{seed: 1, topo: bi, k: k8, n: n2, algo: algo("dor"), vcs: vc1, depth: buf2, length: len32, load: 15, pat: pat("uniform"), recovery: 2},
		{seed: 2, topo: bi, k: k8, n: n2, algo: algo("tfar"), vcs: vc1, depth: buf2, length: len32, load: 100, pat: pat("uniform"), recovery: 2},
		{seed: 3, topo: bi, k: k8, n: n2, algo: algo("tfar"), vcs: vc2, depth: buf2, length: len32, load: 40, pat: pat("uniform"), recovery: 2},
		{seed: 4, topo: bi, k: k4, n: n2, algo: algo("dor"), vcs: vc1, depth: buf2, length: len32, load: 95, pat: pat("uniform"), recovery: 2},
		{seed: 5, topo: bi, k: k4, n: n2, algo: algo("tfar"), vcs: vc1, depth: buf2, length: len32, load: 50, pat: pat("uniform"), recovery: 2},
		// The three fault-mutation scenarios on their 4-ary 2-cube: parked
		// headers (TFAR2, at load 1.3: at 1.0 too few headers wait for every
		// scripted fault to find one), frozen worms (TFAR1) and the injection
		// gate (DOR1).
		{seed: 6, topo: bi, k: k4, n: n2, algo: algo("tfar"), vcs: vc2, depth: buf2, length: len32, load: 130, pat: pat("uniform"), faults: 1, recovery: 2},
		{seed: 7, topo: bi, k: k4, n: n2, algo: algo("tfar"), vcs: vc1, depth: buf2, length: len32, load: 100, pat: pat("uniform"), faults: 2, recovery: 2},
		{seed: 8, topo: bi, k: k4, n: n2, algo: algo("dor"), vcs: vc1, depth: buf2, length: len32, load: 100, pat: pat("uniform"), faults: 3, recovery: 2},
		// The other relations and topologies, with random fault schedules.
		{seed: 9, topo: irregular, k: 3, n: n2, algo: algo("updown"), vcs: vc1, depth: 3, length: 7, load: 80, pat: pat("hotspot"), faults: 4, recovery: 1},
		{seed: 10, topo: irregular, k: 5, n: n1, algo: algo("min-adaptive"), vcs: vc2, depth: 0, length: 3, load: 120, pat: pat("uniform"), faults: 5, recovery: 3},
		{seed: 11, topo: mesh, k: k4, n: n2, algo: algo("west-first"), vcs: vc2, depth: buf2, length: 15, load: 90, pat: pat("transpose"), faults: 6, recovery: 2},
		{seed: 12, topo: mesh, k: 1, n: n3, algo: algo("negative-first"), vcs: vc1, depth: 0, length: 4, load: 110, pat: pat("uniform"), faults: 7, recovery: 2},
		{seed: 13, topo: uni, k: 3, n: n2, algo: algo("dateline-dor"), vcs: vc2, depth: 5, length: 9, load: 80, pat: pat("tornado"), faults: 4},
		{seed: 14, topo: bi, k: k4, n: n2, algo: algo("misroute-far"), vcs: vc2, depth: buf2, length: 11, load: 90, pat: pat("neighbor"), faults: 5, recovery: 3},
		{seed: 15, topo: bi, k: 1, n: n3, algo: algo("duato-far"), vcs: vc3, depth: 3, length: 5, load: 130, pat: pat("shuffle"), faults: 6, recovery: 2},
		{seed: 16, topo: uni, k: k4, n: n1, algo: algo("tfar-turnfirst"), vcs: vc2, depth: 0, length: 2, load: 100, pat: pat("bitrev"), faults: 7, recovery: 1},
	}
	// The model checker's minimized deadlock states, loaded into both
	// engines, with traffic and recovery on top.
	for s := range reproFiles() {
		in = append(in, equivInput{seed: uint64(20 + s), load: 30, pat: pat("uniform"), recovery: 2, start: uint8(1 + s)})
	}
	return in
}

// FuzzEngineEquivalence steps the engine and the reference engine in lockstep
// on a fuzzed physics, traffic, fault schedule and recovery setting, and
// fails at the first cycle whose states differ. The seed corpus runs under
// plain go test.
func FuzzEngineEquivalence(f *testing.F) {
	for _, in := range equivCorpus() {
		f.Add(in.seed, in.topo, in.k, in.n, in.algo, in.vcs, in.depth, in.length, in.load, in.pat, in.faults, in.recovery, in.start)
	}
	f.Fuzz(func(t *testing.T, seed uint64, topo, k, n, algo, vcs, depth, length, load, pat, faults, recovery, start uint8) {
		runEquiv(t, equivInput{seed, topo, k, n, algo, vcs, depth, length, load, pat, faults, recovery, start})
	})
}

// TestReferenceCatchesCorruption corrupts, between cycles, each table and
// bitmap the engine's skip gates keep, and requires the lockstep comparison
// to report a divergence, or the engine to panic, within victimEvery cycles.
// Each corruption is aimed at live state so that it is one the engine will
// act on.
func TestReferenceCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*testing.T, *lockstep, *message.Message)
	}{
		{"chReq: a stale bit that beats the worm's request", func(t *testing.T, ls *lockstep, m *message.Message) {
			// The worm crossed ch on VC 0 last cycle, so the round-robin
			// pointer sits there and VC 1's stale bit wins the next grant.
			n := ls.n
			i := slices.IndexFunc(m.Hops[m.Released:], func(h message.Hop) bool {
				return !n.IsInjection(h.VC) && n.VCIndex(h.VC) == 0 && n.chRR[n.VCChannel(h.VC)] == 0 &&
					n.Owner(h.VC+1) == nil
			})
			if i < 0 {
				t.Fatalf("%v crossed no channel on VC 0 last cycle; the case needs one", m)
			}
			n.chReq[n.VCChannel(m.Hops[m.Released+i].VC)] = 2
		}},
		{"rxReq: a request that beats the worm's ejection", func(t *testing.T, ls *lockstep, m *message.Message) {
			// The worm is ejecting at its destination; no real key is below 1.
			ls.n.rxReq[m.Dst] = rxRequest{key: 1, vc: 0}
		}},
		{"rxNodes: a node scanned with no reception request", func(t *testing.T, ls *lockstep, m *message.Message) {
			ls.n.rxNodes[0] = 1 << 9
		}},
		{"chBits: a channel scanned with no transfer request", func(t *testing.T, ls *lockstep, m *message.Message) {
			ls.n.chBits[0] = 1 << 3
		}},
		{"stray request bit on a free channel", func(t *testing.T, ls *lockstep, m *message.Message) {
			n := ls.n
			ch := 0
			for n.Owner(n.NetVC(topology.ChannelID(ch), 0)) != nil || n.Owner(n.NetVC(topology.ChannelID(ch), 1)) != nil {
				ch++
			}
			n.chReq[ch] = 1
			n.chBits[ch>>6] |= 1 << (ch & 63)
		}},
		{"qNodes set on an empty queue", func(t *testing.T, ls *lockstep, m *message.Message) {
			n := ls.n
			node := 0
			for n.queues[node].len() > 0 || n.Owner(n.InjVC(node)) != nil {
				node++
			}
			flipQueueBit(n, node)
		}},
		{"qNodes clear on a waiting queue whose injection VC is free", func(t *testing.T, ls *lockstep, m *message.Message) {
			n := ls.n
			node := 0
			for n.queues[node].len() > 0 || n.Owner(n.InjVC(node)) != nil {
				node++
			}
			ls.inject(node, (node+5)%n.topo.Nodes(), 16)
			flipQueueBit(n, node)
		}},
		// Dropped: setting the bit of a waiting queue whose injection VC is
		// owned cannot change behaviour — the scan
		// visits the node, finds the VC owned and moves on, as the release
		// that frees it would have made it do anyway.
		{"hand-set Frozen on a moving worm", func(t *testing.T, ls *lockstep, m *message.Message) {
			if m.Frozen {
				t.Fatalf("%v is frozen six cycles after injection; the case needs a moving worm", m)
			}
			m.Frozen = true
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := topology.MustNew(4, 2, true)
			ls, err := newLockstep(Params{Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.TFAR{}})
			if err != nil {
				t.Fatal(err)
			}
			proc := traffic.NewProcess(topo, traffic.NewUniform(topo), 0.3, traffic.Fixed(16), rng.New(3))
			ls.inject(0, 10, 16)
			m := ls.n.queues[0].peek()
			for i := 0; i < 6; i++ {
				proc.Generate(ls.inject)
				if err := ls.step(); err != nil {
					t.Fatalf("before the corruption: %v", err)
				}
			}
			c.corrupt(t, ls, m)
			for i := 0; i < victimEvery; i++ {
				proc.Generate(ls.inject)
				if err := ls.step(); err != nil {
					t.Log(err)
					return
				}
			}
			t.Fatalf("the corruption went unnoticed for %d cycles", victimEvery)
		})
	}
}

// --- Lockstep comparison ----------------------------------------------------

var refStatusOf = map[message.Status]refStatus{message.Queued: refQueued, message.Active: refActive,
	message.Delivered: refDelivered, message.Recovering: refRecovering, message.Recovered: refRecovered,
	message.Killed: refKilled}

// diffMsg names the first field in which the engine's message and the
// reference's disagree, or returns "".
func diffMsg(m *message.Message, rm *refMsg) string {
	hops := make([]refHop, len(m.Hops))
	for i, h := range m.Hops {
		hops[i] = refHop{vc: h.VC, occ: int(h.Occ), departed: int(h.Departed)}
	}
	fields := []struct {
		name      string
		got, want any
	}{
		{"ID", m.ID, rm.id}, {"Status", refStatusOf[m.Status], rm.status}, {"CreateTime", m.CreateTime, rm.created},
		{"InjectTime", m.InjectTime, rm.injected}, {"DeliverTime", m.DeliverTime, rm.done},
		{"Hops", fmt.Sprint(hops), fmt.Sprint(rm.path)}, {"Released", m.Released, rm.released},
		{"SrcRemaining", m.SrcRemaining, rm.srcRemaining}, {"Consumed", m.Consumed, rm.consumed},
		{"CurDim", m.CurDim, rm.curDim}, {"Crossed", m.Crossed, rm.crossed}, {"Blocked", m.Blocked, rm.blocked},
		{"BlockedSince", m.BlockedSince, rm.blockedSince}, {"Wants", fmt.Sprint(m.Wants), fmt.Sprint(rm.wants)},
	}
	for _, f := range fields {
		if f.got != f.want {
			return fmt.Sprintf("msg %d: %s: engine %v, reference %v", rm.id, f.name, f.got, f.want)
		}
	}
	return ""
}

// diff compares the engine's whole state with the reference's after a step:
// clock, source queues, the active list in order, the messages retired in the
// step (the engine's as its OnDeliver hook saw them), owner table,
// round-robin pointers and counters, in that order, so the first difference
// named is the nearest to its cause. It names the cycle, the field and the
// message of the first disagreement.
func (r *refNet) diff(n *Network, retired []*message.Message) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("cycle %d: %s", r.now, fmt.Sprintf(format, args...))
	}
	if n.Now() != r.now {
		return fail("Now: engine %d", n.Now())
	}
	queued := 0
	for node := range n.queues {
		q, rq := n.queues[node].items[n.queues[node].head:], r.queues[node]
		if !slices.EqualFunc(q, rq, func(m *message.Message, rm *refMsg) bool { return m.ID == rm.id }) {
			return fail("source queue %d: engine %d messages, reference %d", node, len(q), len(rq))
		}
		queued += len(rq)
	}
	if len(n.active) != len(r.active) || len(retired) != len(r.retired) {
		return fail("active/retired: engine %d/%d messages, reference %d/%d", len(n.active), len(retired),
			len(r.active), len(r.retired))
	}
	for i, m := range n.active {
		if d := diffMsg(m, r.active[i]); d != "" {
			return fail("active[%d]: %s", i, d)
		}
	}
	for i, m := range retired {
		if d := diffMsg(m, r.retired[i]); d != "" {
			return fail("retired[%d]: %s", i, d)
		}
	}
	for vc, m := range n.owner {
		if rm := r.owner[vc]; (m == nil) != (rm == nil) || m != nil && m.ID != rm.id {
			return fail("owner of %s: engine %v, reference %v", n.VCString(message.VC(vc)), m, rm)
		}
	}
	for node, rr := range n.rxRR {
		if rr != int32(r.rxRR[node]) {
			return fail("rxRR[%d]: engine %d, reference %d", node, rr, r.rxRR[node])
		}
	}
	for ch, rr := range n.chRR {
		if rr != int32(r.chRR[ch]) {
			return fail("chRR[%d]: engine %d, reference %d", ch, rr, r.chRR[ch])
		}
	}
	got := refCounters{n.DeliveredCount, n.RecoveredCount, n.KilledCount, n.UnroutableCount,
		n.InjectedFlits, n.DeliveredFlits, n.AbsorbedFlits, n.KilledFlits}
	switch {
	case got != r.refCounters:
		return fail("counters: engine %+v, reference %+v", got, r.refCounters)
	case n.BlockedCount() != r.blocked || n.QueuedCount() != queued || n.TotalInjected() != int64(r.nextID):
		return fail("blocked/queued/injected: engine %d/%d/%d, reference %d/%d/%d", n.BlockedCount(),
			n.QueuedCount(), n.TotalInjected(), r.blocked, queued, r.nextID)
	}
	return nil
}
