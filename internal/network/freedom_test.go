package network

// The freedom checker: whether a routing relation, as the engine applies it
// on one concrete network, can deadlock. A verdict is for a concrete
// (algorithm, topology, VCs, fault set), never a property of the algorithm.
//
// The checker asks the engine's own (*worker).route for every candidate set,
// so the relation it judges is the one the cycle engine runs, fault filter,
// Surviving fallback and hop budgets included. From every (source,
// destination) injection it explores every reachable header state, keyed by
// everything route reads: the held VC (which also fixes the header's node
// and the previous channel), Dst, CurDim, Crossed, and the hop count where a
// budget reads it (the fault budget on a faulted network, the hops past
// minimal under a misroute budget). A state's successor after taking
// candidate (ch, v) is the header update commit makes when the header
// crosses ch. Each offered VC becomes a VC→VC arc of the channel dependency
// graph, and the verdict is "acyclic" or a shortest cycle with the state
// that produced each arc (Dally & Seitz's condition, checked on the
// implementation rather than on paper: Verbeek & Schmaltz).
//
// duato-far keeps a cyclic dependency graph on purpose; for it the checker
// tests Duato's condition instead: every reachable state route does not
// drop offers an escape VC (index 0 or 1), and the extended graph over
// escape VCs is acyclic, with an arc u→v when a header holding u can reach
// a state offering v through adaptive VCs only.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// hdrState is everything route reads of a header, and the key a state is
// explored under.
type hdrState struct {
	vc      message.VC
	dst     int32
	curDim  int32
	crossed uint32
	hops    int32 // hops taken, capped past the fault budget; 0 on a healthy network
	slack   int32 // hops past minimal, capped at the misroute budget; 0 without one
}

// depGraph is the explored header state space of one network.
type depGraph struct {
	n      *Network
	states []hdrState
	index  map[hdrState]int32
	// src and hopsTaken give one real header for each state: route reads
	// them only through the budgets the key already holds.
	src, hopsTaken []int32
	// State i offers cand[off[i]:off[i+1]] in route's order; next is the
	// state the header is in after taking it, -1 where it then ejects.
	off        []int32
	cand, next []int32
	msg        message.Message
}

// exploreHeaders runs route from every injection over every reachable
// header state of n.
func exploreHeaders(n *Network) *depGraph {
	g := &depGraph{n: n, index: make(map[hdrState]int32)}
	nodes := n.topo.Nodes()
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src != dst {
				g.add(hdrState{vc: n.InjVC(src), dst: int32(dst), curDim: -1}, src, 0)
			}
		}
	}
	g.off = append(g.off, 0)
	for i := int32(0); int(i) < len(g.states); i++ { // states grow as we go
		s := g.states[i]
		for _, c := range n.w0.route(g.header(i), n.Downstream(s.vc)) {
			v := n.NetVC(c.Ch, c.VC)
			g.cand = append(g.cand, int32(v))
			if n.Downstream(v) == int(s.dst) {
				g.next = append(g.next, -1)
				continue
			}
			// The header update commit makes when the header crosses c.Ch.
			src, hops := int(g.src[i]), int(g.hopsTaken[i])+1
			ns := hdrState{vc: v, dst: s.dst, curDim: n.chDim[c.Ch], crossed: s.crossed | n.chFlags[c.Ch]}
			if n.faults != nil {
				ns.hops = int32(min(hops, n.faults.maxHops+1))
			}
			if n.maxDeroutes > 0 {
				ns.slack = int32(min(hops-n.topo.Distance(src, int(s.dst)), n.maxDeroutes))
			}
			g.next = append(g.next, g.add(ns, src, hops))
		}
		g.off = append(g.off, int32(len(g.cand)))
	}
	return g
}

// add returns s's index, recording it with a representative header first.
func (g *depGraph) add(s hdrState, src, hops int) int32 {
	if i, ok := g.index[s]; ok {
		return i
	}
	i := int32(len(g.states))
	g.index[s] = i
	g.states = append(g.states, s)
	g.src = append(g.src, int32(src))
	g.hopsTaken = append(g.hopsTaken, int32(hops))
	return i
}

// header builds state i's representative message, in scratch reused by the
// next call: route reads Src, Dst, CurDim, Crossed, the last hop's VC and
// the hop count.
func (g *depGraph) header(i int32) *message.Message {
	s, m := g.states[i], &g.msg
	m.Src, m.Dst, m.CurDim, m.Crossed = int(g.src[i]), int(s.dst), int(s.curDim), s.crossed
	h := int(g.hopsTaken[i]) + 1
	if cap(m.Hops) < h {
		m.Hops = make([]message.Hop, 2*h)
	}
	m.Hops = m.Hops[:h]
	m.Hops[h-1].VC = s.vc
	return m
}

func (g *depGraph) describe(i int32) string {
	s := g.states[i]
	return fmt.Sprintf("header in %s for %d (src %d, CurDim %d, Crossed %b, %d hops)",
		g.n.VCString(s.vc), s.dst, g.src[i], s.curDim, s.crossed, g.hopsTaken[i])
}

// arcSet is a dependency graph over network VCs, with the state that first
// produced each arc.
type arcSet struct {
	adj     [][]int32
	witness map[[2]int32]int32
}

func newArcSet(vcs int) *arcSet {
	return &arcSet{adj: make([][]int32, vcs), witness: make(map[[2]int32]int32)}
}

func (a *arcSet) add(u, v, state int32) {
	if _, ok := a.witness[[2]int32{u, v}]; !ok {
		a.witness[[2]int32{u, v}] = state
		a.adj[u] = append(a.adj[u], v)
	}
}

// dependencies is the channel dependency graph: an arc from the network VC
// a header holds to every VC route offers it.
func (g *depGraph) dependencies() *arcSet {
	a := newArcSet(g.n.numNetVCs)
	for i, s := range g.states {
		if g.n.IsInjection(s.vc) {
			continue // nothing waits on an injection VC: no arc enters one
		}
		for _, v := range g.cand[g.off[i]:g.off[i+1]] {
			a.add(int32(s.vc), v, int32(i))
		}
	}
	return a
}

func isEscape(n *Network, vc int32) bool { return n.VCIndex(message.VC(vc)) < 2 }

// duato checks Duato's condition on g. It returns the first reachable state
// that route does not drop yet offers no escape VC (-1 if none), and the
// extended dependency graph over escape VCs.
func (g *depGraph) duato() (int32, *arcSet) {
	n := g.n
	for i := range g.states {
		cs := g.cand[g.off[i]:g.off[i+1]]
		if len(cs) > 0 && !slices.ContainsFunc(cs, func(v int32) bool { return isEscape(n, v) }) {
			return int32(i), nil
		}
	}
	a := newArcSet(n.numNetVCs)
	seen := make([]int32, len(g.states)) // stamp: origin state + 1
	var stack []int32
	for i, s := range g.states {
		if n.IsInjection(s.vc) || !isEscape(n, int32(s.vc)) {
			continue
		}
		u, stamp := int32(s.vc), int32(i)+1
		stack = append(stack[:0], int32(i))
		seen[i] = stamp
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for j := g.off[t]; j < g.off[t+1]; j++ {
				if v := g.cand[j]; isEscape(n, v) {
					a.add(u, v, int32(i))
				} else if nx := g.next[j]; nx >= 0 && seen[nx] != stamp {
					seen[nx] = stamp
					stack = append(stack, nx)
				}
			}
		}
	}
	return -1, a
}

// shortestCycle returns a shortest cycle of a, starting at its lowest
// vertex among the shortest, or nil if a is acyclic.
func (a *arcSet) shortestCycle() []int32 {
	// Peel every vertex no cycle passes through (Kahn); what is left, if
	// anything, is where the cycles are.
	indeg := make([]int32, len(a.adj))
	for _, vs := range a.adj {
		for _, v := range vs {
			indeg[v]++
		}
	}
	var queue []int32
	for u, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(u))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range a.adj[u] {
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	var best []int32
	parent := make([]int32, len(a.adj))
	for r := range a.adj {
		if indeg[r] == 0 {
			continue
		}
		// BFS from r within the core until an arc closes back on r.
		clear(parent)
		queue = append(queue[:0], int32(r))
		parent[r] = int32(r) + 1
	bfs:
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range a.adj[u] {
				if v == int32(r) {
					var cyc []int32
					for x := u; x != int32(r); x = parent[x] - 1 {
						cyc = append(cyc, x)
					}
					cyc = append(cyc, int32(r))
					slices.Reverse(cyc)
					if best == nil || len(cyc) < len(best) {
						best = cyc
					}
					break bfs
				}
				if indeg[v] != 0 && parent[v] == 0 {
					parent[v] = u + 1
					queue = append(queue, v)
				}
			}
		}
		if len(best) == 2 {
			break // nothing shorter exists
		}
	}
	return best
}

// describeCycle renders cyc with the state behind each arc.
func (g *depGraph) describeCycle(a *arcSet, cyc []int32) string {
	var b strings.Builder
	for i, u := range cyc {
		v := cyc[(i+1)%len(cyc)]
		fmt.Fprintf(&b, "\n\t%s -> %s: %s", g.n.VCString(message.VC(u)), g.n.VCString(message.VC(v)),
			g.describe(a.witness[[2]int32{u, v}]))
	}
	return b.String()
}

// hideTopo wraps a relation without its ValidateTopo, so that New builds it
// on a topology it rejects.
type hideTopo struct{ routing.Algorithm }

type freedomWant int8

const (
	wantAcyclic freedomWant = iota // the dependency graph is acyclic
	wantDuato                      // Duato's condition holds
	wantCycle                      // the dependency graph has a cycle
)

type freedomCase struct {
	name string
	algo routing.Algorithm
	topo topology.Network
	seed uint64 // the irregular generator's, for the row's name
	vcs  int
	want freedomWant
}

func algo(t testing.TB, name string) routing.Algorithm {
	a, err := routing.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func freedomCases(t testing.TB) []freedomCase {
	var cs []freedomCase
	add := func(name string, topo topology.Network, vcs int, want freedomWant) {
		cs = append(cs, freedomCase{name: name, algo: algo(t, name), topo: topo, vcs: vcs, want: want})
	}
	for _, n := range []int{1, 2, 3, 4} {
		for _, k := range []int{3, 4, 5} {
			if n == 4 && k > 3 {
				break
			}
			for _, bi := range []bool{false, true} {
				topo := topology.MustNew(k, n, bi)
				add("dateline-dor", topo, 2, wantAcyclic)
				add("duato-far", topo, 3, wantDuato)
			}
		}
	}
	for _, n := range []int{2, 3} {
		mesh := topology.MustNewMesh(4, n)
		add("dor", mesh, 1, wantAcyclic)
		add("negative-first", mesh, 1, wantAcyclic)
	}
	add("west-first", topology.MustNewMesh(4, 2), 1, wantAcyclic)
	add("west-first", topology.MustNewMesh(5, 2), 1, wantAcyclic)
	irregular := func(name string, nodes, links int, seed uint64, vcs int, want freedomWant) {
		add(name, topology.MustNewIrregular(nodes, links, seed), vcs, want)
		cs[len(cs)-1].seed = seed
	}
	for _, seed := range []uint64{1, 2, 3, 4} {
		irregular("updown", 16, 8, seed, 1, wantAcyclic)
		irregular("updown", 16, 8, seed, 2, wantAcyclic)
	}
	irregular("updown", 32, 12, 5, 1, wantAcyclic)

	// The relations that deadlock, with unrestricted VCs.
	for _, bi := range []bool{false, true} {
		ring, torus := topology.MustNew(4, 1, bi), topology.MustNew(4, 2, bi)
		add("dor", ring, 1, wantCycle)
		for _, vcs := range []int{1, 2} {
			for _, name := range []string{"dor", "tfar", "tfar-turnfirst", "misroute-far"} {
				add(name, torus, vcs, wantCycle)
			}
		}
	}
	irregular("min-adaptive", 16, 8, 1, 1, wantCycle)
	// The turn models' "meshes only" rejection: on a torus they cycle.
	for _, name := range []string{"negative-first", "west-first"} {
		cs = append(cs, freedomCase{name: name, algo: hideTopo{algo(t, name)},
			topo: topology.MustNew(4, 2, true), vcs: 1, want: wantCycle})
	}
	return cs
}

func freedomNet(t testing.TB, topo topology.Network, a routing.Algorithm, vcs int) *Network {
	t.Helper()
	n, err := New(Params{Topo: topo, VCs: vcs, BufferDepth: 1, Routing: a})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// check returns g's verdict, and a non-empty failure for a verdict other
// than want.
func (g *depGraph) check(want freedomWant) (verdict, failure string) {
	if want == wantDuato {
		bad, ext := g.duato()
		if bad >= 0 {
			return "no escape", "Duato's condition fails: no escape VC offered to " + g.describe(bad)
		}
		if cyc := ext.shortestCycle(); cyc != nil {
			return "extended " + cycleVerdict(cyc),
				"Duato's extended dependency graph has a cycle:" + g.describeCycle(ext, cyc)
		}
		// The plain dependency graph, which is what makes the check needed.
		return "Duato holds (" + cycleVerdict(g.dependencies().shortestCycle()) + ")", ""
	}
	deps := g.dependencies()
	cyc := deps.shortestCycle()
	switch {
	case cyc == nil && want == wantCycle:
		return "acyclic", "no cycle in a relation that deadlocks"
	case cyc != nil && want == wantAcyclic:
		return cycleVerdict(cyc), "dependency cycle:" + g.describeCycle(deps, cyc)
	}
	return cycleVerdict(cyc), ""
}

func cycleVerdict(cyc []int32) string {
	if cyc == nil {
		return "acyclic"
	}
	return fmt.Sprintf("cycle of %d", len(cyc))
}

// TestRoutingFreedom is the verdict for each concrete (algorithm, topology,
// VCs) on a fault-free network: acyclic, Duato's condition, or a cycle.
func TestRoutingFreedom(t *testing.T) {
	for _, c := range freedomCases(t) {
		topo := strings.ReplaceAll(c.topo.String(), " ", "_")
		if c.seed != 0 {
			topo += fmt.Sprintf("_seed%d", c.seed)
		}
		t.Run(fmt.Sprintf("%s/%s/vc%d", c.name, topo, c.vcs), func(t *testing.T) {
			start := time.Now()
			g := exploreHeaders(freedomNet(t, c.topo, c.algo, c.vcs))
			verdict, failure := g.check(c.want)
			t.Logf("%-14s %-44s %d VCs/ch %6d VCs %7d states: %-30s %v", c.name, topo, c.vcs,
				g.n.numNetVCs, len(g.states), verdict, time.Since(start).Round(time.Millisecond))
			if failure != "" {
				t.Error(failure)
			}
		})
	}
}

// TestFreedomCycleIsAKnot loads the checker's cycle for DOR at 1 VC into the
// engine, one blocked message per arc built from the arc's state, and
// requires the knot analysis to find exactly that cycle's VCs as one knot.
func TestFreedomCycleIsAKnot(t *testing.T) {
	for _, topo := range []*topology.Torus{
		topology.MustNew(4, 1, false), topology.MustNew(4, 2, false), topology.MustNew(4, 2, true),
	} {
		n := freedomNet(t, topo, routing.DOR{}, 1)
		g := exploreHeaders(n)
		deps := g.dependencies()
		cyc := deps.shortestCycle()
		if cyc == nil {
			t.Fatalf("%s: DOR at 1 VC has no dependency cycle", topo)
		}
		msgs := make([]InjectedMessage, len(cyc))
		want := make([]message.VC, len(cyc))
		for i, u := range cyc {
			w := deps.witness[[2]int32{u, cyc[(i+1)%len(cyc)]}]
			s := g.states[w]
			var wants []message.VC
			for _, v := range g.cand[g.off[w]:g.off[w+1]] {
				wants = append(wants, message.VC(v))
			}
			msgs[i] = InjectedMessage{ID: message.ID(i), Src: int(g.src[w]), Dst: int(s.dst), Len: 1,
				Path: []message.VC{s.vc}, Occ: []int32{1}, Crossed: s.crossed, Blocked: true, Wants: wants}
			want[i] = message.VC(u)
		}
		if err := n.RestoreState(0, msgs); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		an := cwg.Build(snapshot(n)).Analyze(cwg.Options{})
		if len(an.Deadlocks) != 1 {
			t.Fatalf("%s: %d knots from the cycle%s", topo, len(an.Deadlocks), g.describeCycle(deps, cyc))
		}
		slices.Sort(want)
		if got := an.Deadlocks[0].KnotVCs; !slices.Equal(got, want) {
			t.Errorf("%s: knot %v, want the cycle's VCs %v", topo, got, want)
		}
	}
}

// TestDegradedFreedom is the verdict on the bidirectional 4-ary 2-cube with
// each one of its 64 channels failed in turn (every channel, no symmetry
// reduction: the datelines and DOR's dimension order leave none), so that
// route goes through the fault filter, the Surviving fallback and the hop
// budget. Neither relation keeps its fault-free verdict: the tallies are
// findings about the relations under faults, pinned so that a change to
// either the relation or the checker is seen.
func TestDegradedFreedom(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	for _, c := range []struct {
		name  string
		vcs   int
		want  freedomWant
		tally map[string]int // verdict (cycle lengths dropped) -> failed channels
	}{
		// A header whose DOR channel is dead falls back to any live output
		// on either VC class: every dimension-1 failure and 8 of the 32
		// dimension-0 ones close a cycle.
		{"dateline-dor", 2, wantAcyclic, map[string]int{"acyclic": 24, "cycle": 40}},
		// A dead dimension-0 channel leaves a header whose escape it was
		// with only adaptive VCs; a dead dimension-1 channel sends headers
		// on fallback detours that come back to the escape VC they left.
		{"duato-far", 3, wantDuato, map[string]int{"no escape": 32, "extended cycle": 32}},
	} {
		start := time.Now()
		tally := make(map[string]int)
		var cycles []string
		states := 0
		for ch := topology.ChannelID(0); int(ch) < topo.NumChannels(); ch++ {
			n := freedomNet(t, topo, algo(t, c.name), c.vcs)
			n.SetLinkDown(ch)
			g := exploreHeaders(n)
			states += len(g.states)
			verdict, failure := g.check(c.want)
			tally[strings.TrimRight(verdict, " of0123456789")]++
			if failure != "" {
				cycles = append(cycles, topo.ChannelString(ch)+" down: "+verdict)
			}
		}
		t.Logf("%-14s %s %d VCs/ch, each of %d channels down: %v (%d states, %v)\n\t%s",
			c.name, topo, c.vcs, topo.NumChannels(), tally, states,
			time.Since(start).Round(time.Millisecond), strings.Join(cycles, "\n\t"))
		if !maps.Equal(tally, c.tally) {
			t.Errorf("%s: verdicts %v, pinned %v", c.name, tally, c.tally)
		}
	}
}
