// Package cwg implements the paper's theoretical core: channel wait-for
// graphs (CWGs) and true deadlock detection as knot identification.
//
// A CWG models the network's resource state at an instant. Vertices are
// virtual channels (VCs). For each message, a chain of "solid" arcs joins
// the VCs it owns in acquisition order; if the message is blocked, "dashed"
// arcs run from its most recently acquired VC to every VC its routing
// relation currently supplies. A free VC supplied as a candidate appears as
// a sink vertex.
//
// A deadlock exists iff the CWG contains a knot: a set of vertices R such
// that the set of vertices reachable from each and every member of R is R
// itself. Cycles are necessary but not sufficient (Duato); a knot is
// necessary and sufficient for deadlock given a connected routing function.
// A knot is exactly a terminal strongly connected component that contains at
// least one edge, so detection runs in O(V+E) via Tarjan's SCC algorithm
// plus a condensation scan — the package's tests hold it to the naive
// per-vertex-reachability definition.
//
// Each detected deadlock is characterized as in the paper:
//
//   - deadlock set: the messages owning the knot's VCs;
//   - resource set: every VC owned by a deadlock-set message;
//   - knot cycle density: the number of unique elementary cycles inside the
//     knot (single-cycle vs multi-cycle deadlocks);
//   - dependent messages: blocked messages outside the deadlock set that
//     wait on a VC owned by a deadlock-set message — they cannot proceed
//     until recovery, but removing them would not resolve the deadlock.
//
// A detector builds the much smaller message graph instead (MsgGraph,
// msggraph.go): a vertex per message, weighted arcs between them. Every CWG
// cycle is a message circuit plus one entry VC per arc, so it gives the same
// knots, characterization and cycle counts, through the same Tarjan and
// Johnson code. It answers every knot question asked outside this package.
// The VC graph (Build, one plain pass per snapshot) only draws (DOT, KnotDOT);
// its Analyze, FindKnots and CountCycles are the tests' oracle.
//
// The package is pure graph theory: it depends only on the message package
// for VC/ID types and can be exercised with hand-built scenarios (the
// paper's Figures 1-4 are reconstructed in the tests and in
// examples/anatomy).
package cwg

import (
	"fmt"
	"slices"
	"strings"

	"flexsim/internal/message"
)

// Msg is one message's contribution to a CWG snapshot.
type Msg struct {
	ID message.ID
	// Owned lists the VCs the message owns, in acquisition order.
	Owned []message.VC
	// Blocked reports whether the message's header is blocked; Wants then
	// lists the candidate VCs the routing relation supplies.
	Blocked bool
	Wants   []message.VC
}

// Graph is a built channel wait-for graph over VCs. Construct with Build.
type Graph struct {
	waitFor
	msgs []Msg

	verts []message.VC         // dense index -> VC id
	index map[message.VC]int32 // VC id -> dense index
	owner []int32              // dense vertex -> index into msgs, -1 if free

	edges int // arc count
}

// waitFor is what tarjan and the Johnson counter read of a wait-for graph:
// each vertex's out-arcs, their weights and whether the vertex has an exit.
// The VC graph (Graph) has unit weights and no exits, its sinks being
// vertices of their own; the message graph (MsgGraph) has both.
type waitFor struct {
	adj  [][]int32 // out-arcs
	wt   [][]int32 // arc weights, parallel to adj; nil: every arc weighs 1
	exit []bool    // per vertex, an arc to a sink; nil: none

	sc   *scratch // analysis scratch, lazily allocated, reused across calls
	work Work     // analysis work since the graph was built
}

// Work counts a graph's analysis work since it was built: deterministic
// sums, the same per input whatever the host.
type Work struct {
	// TarjanVisits counts the vertices Tarjan's SCC pass entered plus the
	// arcs it followed.
	TarjanVisits int64
	// JohnsonEdges counts the arcs Johnson's enumeration traversed (what
	// MaxWork caps).
	JohnsonEdges int64
}

// Work returns the analysis work done on the graph since it was built.
func (g *waitFor) Work() Work { return g.work }

// weight returns the weight of v's k-th out-arc.
func (g *waitFor) weight(v int32, k int) int {
	if g.wt == nil {
		return 1
	}
	return int(g.wt[v][k])
}

// Build constructs the CWG for a snapshot of messages in one pass: vertices
// numbered in first-encounter order, arcs appended in message order.
// Messages with no owned VCs are ignored (they hold no resources and cannot
// participate).
func Build(msgs []Msg) *Graph {
	g := &Graph{msgs: msgs, index: make(map[message.VC]int32)}
	vertex := func(vc message.VC) int32 {
		if v, ok := g.index[vc]; ok {
			return v
		}
		v := int32(len(g.verts))
		g.index[vc] = v
		g.verts = append(g.verts, vc)
		g.adj = append(g.adj, nil)
		g.owner = append(g.owner, -1)
		return v
	}
	arc := func(from, to int32) {
		g.adj[from] = append(g.adj[from], to)
		g.edges++
	}
	for mi := range msgs {
		m := &msgs[mi]
		if len(m.Owned) == 0 {
			continue
		}
		prev := vertex(m.Owned[0])
		g.owner[prev] = int32(mi)
		for _, vc := range m.Owned[1:] {
			v := vertex(vc)
			g.owner[v] = int32(mi)
			arc(prev, v)
			prev = v
		}
		if m.Blocked {
			for _, vc := range m.Wants {
				arc(prev, vertex(vc))
			}
		}
	}
	return g
}

// The Builder shim (Builder, NewBuilder, Builder.Build) is kept only for
// bench/; ROADMAP 1(a) deletes it.
type Builder struct{}

func NewBuilder(int) *Builder            { return &Builder{} }
func (*Builder) Build(msgs []Msg) *Graph { return Build(msgs) }

// scratch returns the graph's analysis scratch, allocating it on first use.
func (g *waitFor) scratch() *scratch {
	if g.sc == nil {
		g.sc = &scratch{}
	}
	return g.sc
}

// NumVertices returns the number of VCs appearing in the graph.
func (g *Graph) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of arcs (solid + dashed).
func (g *Graph) NumEdges() int { return g.edges }

// VCs returns the VC ids of the graph's vertices (dense order).
func (g *Graph) VCs() []message.VC { return g.verts }

// OwnerOf returns the id of the message owning vc and true, or false if vc
// is free or absent from the graph.
func (g *Graph) OwnerOf(vc message.VC) (message.ID, bool) {
	i, ok := g.index[vc]
	if !ok || g.owner[i] < 0 {
		return 0, false
	}
	return g.msgs[g.owner[i]].ID, true
}

// Kind classifies a deadlock by its knot cycle density, following the
// paper's taxonomy.
type Kind int8

const (
	// SingleCycle deadlocks have a knot consisting of exactly one
	// elementary cycle — typical of networks with a single channel option
	// (static routing, or adaptivity exhausted).
	SingleCycle Kind = iota
	// MultiCycle deadlocks have knots woven from several overlapping
	// cycles — typical of adaptive routing with multiple VCs, requiring a
	// much higher degree of correlated resource dependency.
	MultiCycle
)

// String returns "single-cycle" or "multi-cycle".
func (k Kind) String() string {
	if k == SingleCycle {
		return "single-cycle"
	}
	return "multi-cycle"
}

// Deadlock describes one detected knot.
type Deadlock struct {
	// KnotVCs is the knot: the terminal strongly connected set of VCs.
	KnotVCs []message.VC
	// DeadlockSet is the set of messages owning the knot's VCs. Removing
	// one of these (and only these) can resolve the deadlock.
	DeadlockSet []message.ID
	// ResourceSet is every VC owned by a deadlock-set message (the
	// paper's resource set; a superset of KnotVCs).
	ResourceSet []message.VC
	// KnotCycles is the knot cycle density: the number of unique
	// elementary cycles within the knot. CyclesCapped reports that
	// enumeration stopped at the configured cap.
	KnotCycles   int
	CyclesCapped bool
	// Kind is SingleCycle iff KnotCycles == 1.
	Kind Kind
	// Dependent lists blocked messages outside the deadlock set that wait
	// on a VC owned by a deadlock-set message. A detection mechanism must
	// not choose these as recovery victims.
	Dependent []message.ID
}

// Options tunes Analyze and CountCycles.
type Options struct {
	// CountKnotCycles enables per-knot elementary cycle enumeration
	// (knot cycle density).
	CountKnotCycles bool
	// MaxCycles caps each enumeration (0 means DefaultMaxCycles). The
	// paper observes hundreds of thousands of cycles at saturation;
	// enumeration beyond the cap reports Capped instead of spinning.
	MaxCycles int
	// MaxWork caps the number of edge traversals per enumeration
	// (0 means DefaultMaxWork).
	MaxWork int
}

// Default enumeration caps.
const (
	DefaultMaxCycles = 1 << 20
	DefaultMaxWork   = 1 << 24
)

// Analysis is the result of analyzing a CWG snapshot.
type Analysis struct {
	// Deadlocks lists the detected knots (empty means no deadlock).
	Deadlocks []Deadlock
	// BlockedMessages is the number of blocked messages in the snapshot.
	BlockedMessages int
}

// scratch bundles the reusable working storage for tarjan, FindKnots,
// classify and the Johnson cycle counter. All per-element arrays are either
// re-initialized per call (tarjan, condensation) or epoch-stamped (classify
// marks, Johnson's local-index table), so steady-state analysis performs no
// heap allocation.
type scratch struct {
	// tarjan
	comp, low, disc []int32
	onStack         []bool
	stack           []int32
	frames          []frame

	// condensation: terminal and hasEdge are tarjan's, the rest FindKnots'
	// and countAll's own
	terminal, hasEdge []bool
	compCnt, compOff  []int32
	compMem           []int32

	// classify marks (epoch-stamped dense sets)
	epoch int64
	vMark []int64 // per vertex: in deadlock-set-owned resource set
	mMark []int64 // per message: in deadlock set

	// MsgGraph.Analyze: per message its knot or -1, per knot its dependent
	// count and the last message counted
	inKnot, nDep, lastDep []int32

	// Johnson enumeration
	jEpoch    int64
	jStamp    []int64
	jLocal    []int32
	jAdj      [][]int32
	jWt       [][]int32
	jBlocked  []bool
	jBlockMap [][]int32
}

type frame struct {
	v  int32
	ei int32
}

// growI32 returns a slice of length n reusing s's storage when possible.
// Contents are unspecified; callers initialize what they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// growLists returns a slice of n reusable []int32 lists, preserving the
// capacity of previously grown entries.
func growLists(s [][]int32, n int) [][]int32 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([][]int32, n)
	copy(out, s[:cap(s)])
	return out
}

// marks returns the epoch-stamped per-vertex and per-message mark arrays,
// sized for the graph, with a fresh epoch.
func (sc *scratch) marks(nVerts, nMsgs int) (vMark, mMark []int64, epoch int64) {
	if cap(sc.vMark) < nVerts {
		sc.vMark = make([]int64, nVerts)
	}
	if cap(sc.mMark) < nMsgs {
		sc.mMark = make([]int64, nMsgs)
	}
	sc.vMark = sc.vMark[:cap(sc.vMark)]
	sc.mMark = sc.mMark[:cap(sc.mMark)]
	sc.epoch++
	return sc.vMark, sc.mMark, sc.epoch
}

// FindKnots returns the knots of the graph as vertex-index sets, using
// Tarjan SCC + condensation: a knot is an SCC with no edges leaving it that
// contains at least one edge (size > 1, or a self-loop). Each returned set
// is freshly allocated and sorted ascending; internal working storage is
// reused across calls. It serves DOT's shading and the tests' oracle.
func (g *Graph) FindKnots() [][]int32 { return g.knots() }

// knots returns the terminal components that hold an arc, in completion
// order, as vertex sets sorted ascending.
func (g *waitFor) knots() [][]int32 {
	comp, ncomp := g.tarjan()
	sc := g.scratch()
	terminal, hasEdge := sc.terminal, sc.hasEdge
	sc.compCnt = growI32(sc.compCnt, ncomp)
	compSlot := sc.compCnt
	nk := 0
	for c := 0; c < ncomp; c++ {
		if terminal[c] && hasEdge[c] {
			compSlot[c] = int32(nk)
			nk++
		} else {
			compSlot[c] = -1
		}
	}
	if nk == 0 {
		return nil
	}
	// Carve the sets out of one allocation, sized by a counting pass.
	sc.compOff = growI32(sc.compOff, nk+1)
	off := sc.compOff
	clear(off)
	for u := range comp {
		if s := compSlot[comp[u]]; s >= 0 {
			off[s+1]++
		}
	}
	for s := 0; s < nk; s++ {
		off[s+1] += off[s]
	}
	flat := make([]int32, off[nk])
	members := make([][]int32, nk)
	for s := range members {
		members[s] = flat[off[s]:off[s]:off[s+1]]
	}
	for u := range comp {
		if s := compSlot[comp[u]]; s >= 0 {
			members[s] = append(members[s], int32(u))
		}
	}
	return members
}

// tarjan computes (iteratively) the component id per vertex and the number
// of strongly connected components, and with them the condensation's two
// facts per component: sc.terminal (no edge leaves it and no member has an
// exit) and sc.hasEdge (an edge stays inside it). Component ids are in
// completion order, so an arc between two components leads to the lower
// id. All three are scratch storage, valid until the next analysis of the
// graph.
func (g *waitFor) tarjan() (comp []int32, ncomp int) {
	n := len(g.adj)
	sc := g.scratch()
	sc.comp = growI32(sc.comp, n)
	sc.low = growI32(sc.low, n)
	sc.disc = growI32(sc.disc, n)
	sc.onStack = growBool(sc.onStack, n)
	comp = sc.comp
	low, disc, onStack := sc.low, sc.disc, sc.onStack
	for i := 0; i < n; i++ {
		comp[i] = -1
		disc[i] = -1
		onStack[i] = false
	}
	stack := sc.stack[:0]
	frames := sc.frames[:0]
	var timer int32
	visits := int64(0)
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: int32(s)})
		disc[s] = timer
		low[s] = timer
		timer++
		stack = append(stack, int32(s))
		onStack[s] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if int(f.ei) < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				visits++
				if disc[w] == -1 {
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && low[v] > disc[w] {
					low[v] = disc[w]
				}
				continue
			}
			// Post-order: pop frame, close component if root.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[p] > low[v] {
					low[p] = low[v]
				}
			}
			if low[v] == disc[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(ncomp)
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	sc.stack = stack[:0]
	sc.frames = frames[:0]
	g.work.TarjanVisits += visits + int64(n)
	sc.terminal = growBool(sc.terminal, ncomp)
	sc.hasEdge = growBool(sc.hasEdge, ncomp)
	terminal, hasEdge := sc.terminal, sc.hasEdge
	for i := 0; i < ncomp; i++ {
		terminal[i] = true
		hasEdge[i] = false
	}
	for u := range g.adj {
		cu := comp[u]
		if g.exit != nil && g.exit[u] {
			terminal[cu] = false
		}
		for _, v := range g.adj[u] {
			if cu != comp[v] {
				terminal[cu] = false
			} else {
				hasEdge[cu] = true
			}
		}
	}
	return comp, ncomp
}

// Analyze finds all knots and classifies each deadlock: the tests' oracle
// for MsgGraph.Analyze.
func (g *Graph) Analyze(opts Options) Analysis {
	var an Analysis
	for i := range g.msgs {
		if g.msgs[i].Blocked {
			an.BlockedMessages++
		}
	}
	knots := g.FindKnots()
	for _, knot := range knots {
		an.Deadlocks = append(an.Deadlocks, g.classify(knot, opts))
	}
	return an
}

// CountCycles counts the graph's elementary cycles, the paper's resource
// dependency cycle census, under opts' MaxCycles and MaxWork caps; capped
// reports that a cap stopped the count: the tests' oracle for the census's
// entry, MsgGraph.CountCycles. opts.CountKnotCycles does not apply.
func (g *Graph) CountCycles(opts Options) (n int, capped bool) {
	return newCounter(opts, g.scratch()).countAll(&g.waitFor)
}

// classify builds the paper's characterization of one knot. The knot slice
// must be sorted ascending (FindKnots emits members in vertex order).
func (g *Graph) classify(knot []int32, opts Options) Deadlock {
	var d Deadlock
	vMark, mMark, epoch := g.scratch().marks(len(g.verts), len(g.msgs))

	// Deadlock set: owners of the knot's VCs; resource set: every VC
	// owned by a deadlock-set message.
	for _, v := range knot {
		d.KnotVCs = append(d.KnotVCs, g.verts[v])
		if o := g.owner[v]; o >= 0 && mMark[o] != epoch {
			mMark[o] = epoch
			d.DeadlockSet = append(d.DeadlockSet, g.msgs[o].ID)
			d.ResourceSet = append(d.ResourceSet, g.msgs[o].Owned...)
		}
	}
	slices.Sort(d.KnotVCs)
	slices.Sort(d.DeadlockSet)
	slices.Sort(d.ResourceSet)

	// Dependent messages: blocked, outside the set, waiting on a VC owned
	// by a set member. Every owned VC is a graph vertex, so set-owned
	// membership reduces to a per-vertex mark.
	for _, vc := range d.ResourceSet {
		if v, ok := g.index[vc]; ok {
			vMark[v] = epoch
		}
	}
	for mi := range g.msgs {
		m := &g.msgs[mi]
		if !m.Blocked || mMark[mi] == epoch {
			continue
		}
		for _, w := range m.Wants {
			if v, ok := g.index[w]; ok && vMark[v] == epoch {
				d.Dependent = append(d.Dependent, m.ID)
				break
			}
		}
	}
	slices.Sort(d.Dependent)
	d.countCycles(&g.waitFor, knot, opts)
	return d
}

// countCycles sets d's knot cycle density and kind from the knot's vertices
// in g, sorted ascending.
func (d *Deadlock) countCycles(g *waitFor, knot []int32, opts Options) {
	if opts.CountKnotCycles {
		c := newCounter(opts, g.scratch())
		d.KnotCycles, d.CyclesCapped = c.countInduced(g, knot)
	} else {
		// Cheap lower bound: a knot always contains at least one cycle.
		d.KnotCycles = 1
	}
	if d.KnotCycles <= 1 && !d.CyclesCapped {
		d.Kind = SingleCycle
	} else {
		d.Kind = MultiCycle
	}
}

// DOT renders the graph in Graphviz format. label renders a VC id (pass nil
// for numeric ids). Solid arcs are ownership chains; dashed arcs are waits.
// Knot vertices are shaded.
func (g *Graph) DOT(label func(message.VC) string) string {
	inKnot := make(map[int32]bool)
	for _, knot := range g.FindKnots() {
		for _, v := range knot {
			inKnot[v] = true
		}
	}
	return g.dot("digraph cwg {\n  rankdir=LR;\n  node [shape=circle, fontsize=10];\n",
		g.verts, nil, inKnot, label)
}

// KnotDOT renders only the subgraph induced by one deadlock's knot — the
// terminal strongly connected VCs and the ownership/wait arcs among them —
// in Graphviz format. label renders a VC id (pass nil for numeric ids). The
// deadlock must come from an Analyze of this graph.
func (g *Graph) KnotDOT(d *Deadlock, label func(message.VC) string) string {
	in := make(map[message.VC]bool, len(d.KnotVCs))
	for _, vc := range d.KnotVCs {
		in[vc] = true
	}
	return g.dot("digraph knot {\n  rankdir=LR;\n  node [shape=circle, fontsize=10, style=filled, fillcolor=lightcoral];\n",
		d.KnotVCs, in, nil, label)
}

// dot is DOT's and KnotDOT's one renderer: header, then the vertices of
// verts in that order (those of the graph; shaded where shade says), then
// every ownership and wait arc whose two ends keep holds (every arc when
// keep is nil), then the closing brace.
func (g *Graph) dot(header string, verts []message.VC, keep map[message.VC]bool, shade map[int32]bool,
	label func(message.VC) string) string {
	if label == nil {
		label = func(vc message.VC) string { return fmt.Sprintf("c%d", vc) }
	}
	kept := func(vc message.VC) bool { return keep == nil || keep[vc] }
	var b strings.Builder
	b.WriteString(header)
	for _, vc := range verts {
		i, ok := g.index[vc]
		if !ok {
			continue
		}
		attr := ""
		if shade[i] {
			attr = ", style=filled, fillcolor=lightcoral"
		}
		ownerLbl := "free"
		if o := g.owner[i]; o >= 0 {
			ownerLbl = fmt.Sprintf("m%d", g.msgs[o].ID)
		}
		fmt.Fprintf(&b, "  v%d [label=\"%s\\n%s\"%s];\n", i, label(vc), ownerLbl, attr)
	}
	for mi := range g.msgs {
		m := &g.msgs[mi]
		for j := 0; j+1 < len(m.Owned); j++ {
			if kept(m.Owned[j]) && kept(m.Owned[j+1]) {
				fmt.Fprintf(&b, "  v%d -> v%d [label=\"m%d\"];\n",
					g.index[m.Owned[j]], g.index[m.Owned[j+1]], m.ID)
			}
		}
		if m.Blocked && len(m.Owned) > 0 && kept(m.Owned[len(m.Owned)-1]) {
			head := g.index[m.Owned[len(m.Owned)-1]]
			for _, w := range m.Wants {
				if kept(w) {
					fmt.Fprintf(&b, "  v%d -> v%d [style=dashed, label=\"m%d\"];\n",
						head, g.index[w], m.ID)
				}
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
