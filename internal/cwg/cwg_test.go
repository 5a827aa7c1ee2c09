package cwg

import (
	"reflect"
	"strings"
	"testing"

	"flexsim/internal/message"
	"flexsim/internal/rng"
)

// digraph builds a CWG whose adjacency equals the given edge list, by giving
// every vertex a synthetic blocked message owning exactly that VC. This lets
// graph-level properties be tested on arbitrary digraphs.
func digraph(n int, edges [][2]int32) *Graph {
	adj := make(map[int32][]message.VC)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], message.VC(e[1]))
	}
	var msgs []Msg
	for v := 0; v < n; v++ {
		m := Msg{ID: message.ID(v + 1), Owned: []message.VC{message.VC(v)}}
		if w := adj[int32(v)]; len(w) > 0 {
			m.Blocked = true
			m.Wants = w
		}
		msgs = append(msgs, m)
	}
	return Build(msgs)
}

func TestEmptyGraph(t *testing.T) {
	g := Build(nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty build produced vertices")
	}
	an := g.Analyze(Options{CountKnotCycles: true})
	if n, _ := g.CountCycles(Options{}); len(an.Deadlocks) != 0 || n != 0 {
		t.Fatal("empty graph reported deadlocks or cycles")
	}
}

func TestMessagesWithoutResourcesIgnored(t *testing.T) {
	g := Build([]Msg{{ID: 1}, {ID: 2, Blocked: true, Wants: []message.VC{5}}})
	if g.NumVertices() != 0 {
		t.Fatalf("resource-less messages created %d vertices", g.NumVertices())
	}
}

func TestSolidChainEdges(t *testing.T) {
	g := Build([]Msg{{ID: 1, Owned: []message.VC{10, 11, 12}}})
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("chain graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if id, ok := g.OwnerOf(11); !ok || id != 1 {
		t.Errorf("OwnerOf(11) = %v, %v", id, ok)
	}
	if _, ok := g.OwnerOf(99); ok {
		t.Error("OwnerOf(absent VC) reported an owner")
	}
}

func TestFreeWantedVCIsSink(t *testing.T) {
	// A blocked message wanting a free VC: the free VC appears as a sink
	// vertex and prevents a knot even within a wait cycle.
	msgs := []Msg{
		{ID: 1, Owned: []message.VC{0}, Blocked: true, Wants: []message.VC{1, 9}},
		{ID: 2, Owned: []message.VC{1}, Blocked: true, Wants: []message.VC{0}},
	}
	g := Build(msgs)
	if _, ok := g.OwnerOf(9); ok {
		t.Fatal("free VC has an owner")
	}
	if knots := g.FindKnots(); len(knots) != 0 {
		t.Fatalf("knot found despite free escape VC: %v", knots)
	}
	// Without the escape, the same structure is a deadlock.
	msgs[0].Wants = []message.VC{1}
	if knots := Build(msgs).FindKnots(); len(knots) != 1 {
		t.Fatal("two-message cycle without escape is not detected")
	}
}

func TestPaperFig1(t *testing.T) {
	g := Build(PaperFig1())
	an := g.Analyze(Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 1 {
		t.Fatalf("Fig 1: %d deadlocks, want 1", len(an.Deadlocks))
	}
	d := an.Deadlocks[0]
	if d.Kind != SingleCycle || d.KnotCycles != 1 {
		t.Errorf("Fig 1: kind=%v density=%d, want single-cycle density 1", d.Kind, d.KnotCycles)
	}
	if want := []message.ID{1, 2, 3}; !reflect.DeepEqual(d.DeadlockSet, want) {
		t.Errorf("Fig 1 deadlock set = %v, want %v", d.DeadlockSet, want)
	}
	if len(d.KnotVCs) != 8 || len(d.ResourceSet) != 8 {
		t.Errorf("Fig 1 knot=%d resource=%d, want 8/8", len(d.KnotVCs), len(d.ResourceSet))
	}
	if len(d.Dependent) != 0 {
		t.Errorf("Fig 1 dependents = %v, want none", d.Dependent)
	}
	if n, _ := g.CountCycles(Options{}); n != 1 {
		t.Errorf("Fig 1 total cycles = %d, want 1", n)
	}
	if an.BlockedMessages != 3 {
		t.Errorf("Fig 1 blocked = %d, want 3", an.BlockedMessages)
	}
}

func TestPaperFig2(t *testing.T) {
	g := Build(PaperFig2())
	an := g.Analyze(Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 1 {
		t.Fatalf("Fig 2: %d deadlocks, want 1", len(an.Deadlocks))
	}
	d := an.Deadlocks[0]
	if want := []message.VC{1, 3, 5, 7}; !reflect.DeepEqual(d.KnotVCs, want) {
		t.Errorf("Fig 2 knot = %v, want %v", d.KnotVCs, want)
	}
	if want := []message.ID{1, 2, 3, 4}; !reflect.DeepEqual(d.DeadlockSet, want) {
		t.Errorf("Fig 2 deadlock set = %v, want %v", d.DeadlockSet, want)
	}
	if want := []message.VC{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(d.ResourceSet, want) {
		t.Errorf("Fig 2 resource set = %v, want %v", d.ResourceSet, want)
	}
	if want := []message.ID{5}; !reflect.DeepEqual(d.Dependent, want) {
		t.Errorf("Fig 2 dependents = %v, want %v (message 5 is dependent, not deadlocked)", d.Dependent, want)
	}
	if d.Kind != SingleCycle {
		t.Errorf("Fig 2 kind = %v", d.Kind)
	}
}

func TestPaperFig3(t *testing.T) {
	g := Build(PaperFig3())
	an := g.Analyze(Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 1 {
		t.Fatalf("Fig 3: %d deadlocks, want 1", len(an.Deadlocks))
	}
	d := an.Deadlocks[0]
	if d.Kind != MultiCycle {
		t.Errorf("Fig 3 kind = %v, want multi-cycle", d.Kind)
	}
	if d.KnotCycles != 4 {
		t.Errorf("Fig 3 knot cycle density = %d, want 4", d.KnotCycles)
	}
	if len(d.DeadlockSet) != 8 || len(d.ResourceSet) != 16 || len(d.KnotVCs) != 8 {
		t.Errorf("Fig 3 sizes: set=%d resource=%d knot=%d, want 8/16/8",
			len(d.DeadlockSet), len(d.ResourceSet), len(d.KnotVCs))
	}
}

func TestPaperFig4(t *testing.T) {
	g := Build(PaperFig4())
	an := g.Analyze(Options{})
	if len(an.Deadlocks) != 0 {
		t.Fatalf("Fig 4: deadlock reported in cyclic non-deadlock: %+v", an.Deadlocks)
	}
	if n, _ := g.CountCycles(Options{}); n == 0 {
		t.Error("Fig 4: no cycles found; the scenario must remain cyclic")
	}
}

func TestCheckedRingKnot(t *testing.T) {
	g := Build(CheckedRingKnot())
	an := g.Analyze(Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 1 {
		t.Fatalf("checked ring knot: %d deadlocks, want 1", len(an.Deadlocks))
	}
	d := an.Deadlocks[0]
	if want := []message.VC{0, 1, 2}; !reflect.DeepEqual(d.KnotVCs, want) {
		t.Errorf("knot = %v, want the three ring channels %v", d.KnotVCs, want)
	}
	if want := []message.ID{0, 1, 2}; !reflect.DeepEqual(d.DeadlockSet, want) {
		t.Errorf("deadlock set = %v, want %v", d.DeadlockSet, want)
	}
	if len(d.ResourceSet) != 6 {
		t.Errorf("resource set = %v, want 6 VCs (injection VCs ride along)", d.ResourceSet)
	}
	if d.Kind != SingleCycle || d.KnotCycles != 1 {
		t.Errorf("kind=%v density=%d, want single-cycle density 1", d.Kind, d.KnotCycles)
	}
	if len(d.Dependent) != 0 {
		t.Errorf("dependents = %v, want none", d.Dependent)
	}
}

func TestCheckedLatentCycle(t *testing.T) {
	g := Build(CheckedLatentCycle())
	an := g.Analyze(Options{})
	if len(an.Deadlocks) != 0 {
		t.Fatalf("latent state reported as deadlock: %+v (the knot has not formed yet)", an.Deadlocks)
	}
	if an.BlockedMessages != 2 {
		t.Errorf("blocked = %d, want 2", an.BlockedMessages)
	}
	if n, _ := g.CountCycles(Options{}); n != 0 {
		t.Errorf("total cycles = %d; the latent wait chain must be acyclic", n)
	}
}

func TestCheckedTransientBlock(t *testing.T) {
	g := Build(CheckedTransientBlock())
	an := g.Analyze(Options{})
	if len(an.Deadlocks) != 0 {
		t.Fatalf("transient block reported as deadlock: %+v", an.Deadlocks)
	}
	if an.BlockedMessages != 1 {
		t.Errorf("blocked = %d, want 1", an.BlockedMessages)
	}
}

func TestSelfLoopKnot(t *testing.T) {
	// A vertex waiting on itself (possible only under nonminimal routing)
	// is a knot of one vertex.
	g := digraph(1, [][2]int32{{0, 0}})
	knots := g.FindKnots()
	if len(knots) != 1 || len(knots[0]) != 1 {
		t.Fatalf("self-loop knots = %v", knots)
	}
}

func TestTwoIndependentKnots(t *testing.T) {
	g := digraph(4, [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 2}})
	knots := g.FindKnots()
	if len(knots) != 2 {
		t.Fatalf("found %d knots, want 2", len(knots))
	}
	an := g.Analyze(Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 2 {
		t.Fatalf("found %d deadlocks, want 2", len(an.Deadlocks))
	}
	for _, d := range an.Deadlocks {
		if d.KnotCycles != 1 || d.Kind != SingleCycle {
			t.Errorf("independent 2-cycles misclassified: %+v", d)
		}
	}
}

func TestCycleWithEscapeIsNotKnot(t *testing.T) {
	// 0 -> 1 -> 0 cycle, but 1 also reaches sink 2.
	g := digraph(3, [][2]int32{{0, 1}, {1, 0}, {1, 2}})
	if knots := g.FindKnots(); len(knots) != 0 {
		t.Fatalf("escaped cycle reported as knot: %v", knots)
	}
	if c := g.NaiveCycleCount(); c != 1 {
		t.Fatalf("cycle count = %d, want 1", c)
	}
}

func TestKnotReachableFromOutside(t *testing.T) {
	// Vertices feeding INTO a knot are not part of it.
	g := digraph(4, [][2]int32{{3, 0}, {0, 1}, {1, 2}, {2, 0}})
	knots := g.FindKnots()
	if len(knots) != 1 || len(knots[0]) != 3 {
		t.Fatalf("knots = %v, want one 3-vertex knot", knots)
	}
	for _, v := range knots[0] {
		if v == 3 {
			t.Error("feeder vertex included in knot")
		}
	}
}

func randomGraph(r *rng.Source, maxN int) (int, [][2]int32) {
	n := 2 + r.Intn(maxN-1)
	edges := make([][2]int32, 0, n*2)
	m := r.Intn(2 * n)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int32{int32(r.Intn(n)), int32(r.Intn(n))})
	}
	return n, edges
}

// TestTarjanKnotsMatchNaive cross-validates the fast knot finder against the
// literal reachability definition on random digraphs.
func TestTarjanKnotsMatchNaive(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 300; trial++ {
		n, edges := randomGraph(r, 12)
		g := digraph(n, edges)
		fast := g.FindKnots()
		slow := g.NaiveKnots()
		if !sameKnotSets(fast, slow) {
			t.Fatalf("trial %d: knots disagree\nedges=%v\nfast=%v\nnaive=%v",
				trial, edges, fast, slow)
		}
	}
}

func sameKnotSets(a, b [][]int32) bool {
	norm := func(ks [][]int32) map[string]bool {
		out := map[string]bool{}
		for _, k := range ks {
			sorted := append([]int32(nil), k...)
			for i := 1; i < len(sorted); i++ {
				for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
					sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
				}
			}
			key := ""
			for _, v := range sorted {
				key += string(rune(v)) + ","
			}
			out[key] = true
		}
		return out
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestJohnsonMatchesNaive cross-validates the capped Johnson enumerator
// against exhaustive DFS cycle counting on random digraphs.
func TestJohnsonMatchesNaive(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 200; trial++ {
		n, edges := randomGraph(r, 9)
		g := digraph(n, edges)
		want := g.NaiveCycleCount()
		c := newCounter(Options{}, g.scratch())
		got, capped := c.countAll(&g.waitFor)
		if capped {
			t.Fatalf("trial %d: capped on a tiny graph", trial)
		}
		if got != want {
			t.Fatalf("trial %d: Johnson=%d naive=%d edges=%v", trial, got, want, edges)
		}
	}
}

func TestJohnsonCycleCap(t *testing.T) {
	// Complete digraph on 9 vertices has far more than 50 cycles.
	var edges [][2]int32
	for i := int32(0); i < 9; i++ {
		for j := int32(0); j < 9; j++ {
			if i != j {
				edges = append(edges, [2]int32{i, j})
			}
		}
	}
	g := digraph(9, edges)
	c := newCounter(Options{MaxCycles: 50}, g.scratch())
	got, capped := c.countAll(&g.waitFor)
	if !capped {
		t.Fatal("cap not reported")
	}
	if got != 50 {
		t.Fatalf("capped count = %d, want 50", got)
	}

	// One message circuit of weight 3 × 3 is nine VC cycles: the message
	// graph's clamped product caps exactly where the VC graph's count does.
	msgs := []Msg{
		{ID: 1, Owned: []message.VC{0, 1, 2}, Blocked: true, Wants: []message.VC{3, 4, 5}},
		{ID: 2, Owned: []message.VC{3, 4, 5}, Blocked: true, Wants: []message.VC{0, 1, 2}},
	}
	for _, max := range []int{8, 9, 10} {
		opts := Options{MaxCycles: max}
		wantN, wantCapped := Build(msgs).CountCycles(opts)
		if n, capped := NewMsgGraph(0).Build(msgs).CountCycles(opts); n != wantN || capped != wantCapped {
			t.Errorf("MaxCycles %d: message graph %d (capped %v), VC graph %d (capped %v)", max, n, capped, wantN, wantCapped)
		}
	}
}

func TestJohnsonWorkCap(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 12; i++ {
		for j := int32(0); j < 12; j++ {
			if i != j {
				edges = append(edges, [2]int32{i, j})
			}
		}
	}
	g := digraph(12, edges)
	c := newCounter(Options{MaxWork: 1000}, g.scratch())
	_, capped := c.countAll(&g.waitFor)
	if !capped {
		t.Fatal("work cap not reported")
	}
}

func TestKnotCycleDensityCapClassifiesMultiCycle(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 8; i++ {
		for j := int32(0); j < 8; j++ {
			if i != j {
				edges = append(edges, [2]int32{i, j})
			}
		}
	}
	g := digraph(8, edges)
	an := g.Analyze(Options{CountKnotCycles: true, MaxCycles: 10})
	if len(an.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d", len(an.Deadlocks))
	}
	d := an.Deadlocks[0]
	if !d.CyclesCapped || d.Kind != MultiCycle {
		t.Errorf("capped dense knot: capped=%v kind=%v", d.CyclesCapped, d.Kind)
	}
}

func TestAnalyzeWithoutKnotCycleCount(t *testing.T) {
	g := Build(PaperFig3())
	an := g.Analyze(Options{})
	if len(an.Deadlocks) != 1 {
		t.Fatal("deadlock missed")
	}
	// Without enumeration the density defaults to the >=1 lower bound and
	// the kind defaults to single-cycle (cheap mode).
	if an.Deadlocks[0].KnotCycles != 1 {
		t.Errorf("default density = %d", an.Deadlocks[0].KnotCycles)
	}
}

func TestDOTOutput(t *testing.T) {
	g := Build(PaperFig2())
	dot := g.DOT(nil)
	for _, want := range []string{"digraph cwg", "style=dashed", "lightcoral", "m5"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	custom := g.DOT(func(vc message.VC) string { return "X" })
	if !strings.Contains(custom, "X") {
		t.Error("custom labeler ignored")
	}
}

func TestKnotDOTOutput(t *testing.T) {
	g := Build(PaperFig2())
	an := g.Analyze(Options{CountKnotCycles: true})
	if len(an.Deadlocks) != 1 {
		t.Fatal("expected one deadlock")
	}
	dl := &an.Deadlocks[0]
	dot := g.KnotDOT(dl, nil)
	if !strings.Contains(dot, "digraph knot") {
		t.Errorf("KnotDOT missing header:\n%s", dot)
	}
	// Every knot VC appears as a vertex (two-line owner label); nothing
	// outside the knot does.
	vertices := strings.Count(dot, `\n`)
	edges := strings.Count(dot, "->")
	if vertices != len(dl.KnotVCs) {
		t.Errorf("expected %d vertex lines, got %d (%d arrow lines):\n%s",
			len(dl.KnotVCs), vertices, edges, dot)
	}
	// The knot is a terminal SCC with at least one arc among its members.
	if edges == 0 {
		t.Errorf("knot subgraph rendered without arcs:\n%s", dot)
	}
	custom := g.KnotDOT(dl, func(vc message.VC) string { return "Y" })
	if !strings.Contains(custom, "Y") {
		t.Error("custom labeler ignored")
	}
}

func TestKindString(t *testing.T) {
	if SingleCycle.String() != "single-cycle" || MultiCycle.String() != "multi-cycle" {
		t.Error("Kind strings wrong")
	}
}

// TestKnotIsTerminalSCCProperty: on random graphs, every reported knot must
// (a) be strongly connected and (b) have no edges leaving it, and every
// nontrivial terminal SCC must be reported.
func TestKnotIsTerminalSCCProperty(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		n, edges := randomGraph(r, 15)
		g := digraph(n, edges)
		for _, knot := range g.FindKnots() {
			in := map[int32]bool{}
			for _, v := range knot {
				in[v] = true
			}
			for _, v := range knot {
				for _, w := range g.adj[v] {
					if !in[w] {
						t.Fatalf("trial %d: edge %d->%d leaves knot %v", trial, v, w, knot)
					}
				}
			}
		}
	}
}

// TestBuilderReuseAnswersItsSnapshot pins builder reuse: a second Build
// into the same builder answers for its own snapshot, not the first's, and
// FindKnots alone still works.
func TestBuilderReuseAnswersItsSnapshot(t *testing.T) {
	opts := Options{CountKnotCycles: true}
	a, b := PaperFig3(), CheckedRingKnot()
	bld := NewBuilder(0)

	g := bld.Build(a)
	anA := g.Analyze(opts)
	if want := Build(a).Analyze(opts); !reflect.DeepEqual(anA, want) {
		t.Fatalf("analysis of A through the builder %+v, fresh %+v", anA, want)
	}

	// B into the same builder: A's components must not answer for it.
	g = bld.Build(b)
	knots := g.FindKnots()
	if want := Build(b).FindKnots(); !sameKnotSets(knots, want) || len(knots) == 0 {
		t.Fatalf("knots of B after analysing A in the same builder %v, fresh build %v", knots, want)
	}
	if anB, want := g.Analyze(opts), Build(b).Analyze(opts); !reflect.DeepEqual(anB, want) {
		t.Fatalf("analysis of B %+v, fresh %+v", anB, want)
	}

	// FindKnots alone, on a graph nothing has analysed.
	if knots := Build(a).FindKnots(); !sameKnotSets(knots, Build(a).NaiveKnots()) {
		t.Fatalf("FindKnots alone %v, naive definition %v", knots, Build(a).NaiveKnots())
	}
}
