package cwg

import (
	"reflect"
	"testing"

	"flexsim/internal/message"
)

// FuzzKnotsAndCycles interprets fuzz input as a digraph edge list over up to
// 12 vertices and cross-validates the production knot finder (Tarjan +
// condensation) and cycle counter (Johnson) against the literal reference
// implementations. Run with `go test -fuzz FuzzKnotsAndCycles` for
// continuous fuzzing; the seed corpus runs in normal test mode.
func FuzzKnotsAndCycles(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x20})             // 3-cycle
	f.Add([]byte{0x01, 0x10})                   // 2-cycle knot
	f.Add([]byte{0x01, 0x10, 0x12})             // cycle with escape
	f.Add([]byte{0x00})                         // self-loop
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x40}) // 5-ring
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 24 {
			data = data[:24] // bound naive enumeration cost
		}
		const n = 12
		edges := make([][2]int32, 0, len(data))
		for _, b := range data {
			edges = append(edges, [2]int32{int32(b>>4) % n, int32(b&0xf) % n})
		}
		g := digraph(n, edges)
		fast := g.FindKnots()
		slow := g.NaiveKnots()
		if !sameKnotSets(fast, slow) {
			t.Fatalf("knots disagree on %v: fast=%v naive=%v", edges, fast, slow)
		}
		c := newCounter(Options{}, g.scratch())
		got, capped := c.countAll(&g.waitFor)
		if capped {
			t.Fatalf("capped on a %d-edge graph", len(edges))
		}
		if want := g.NaiveCycleCount(); got != want {
			t.Fatalf("cycle counts disagree on %v: johnson=%d naive=%d", edges, got, want)
		}
		// Every knot found must be nonempty and contain only graph
		// vertices.
		for _, knot := range fast {
			if len(knot) == 0 {
				t.Fatal("empty knot")
			}
			for _, v := range knot {
				if v < 0 || int(v) >= g.NumVertices() {
					t.Fatalf("knot vertex %d out of range", v)
				}
			}
		}
	})
}

// snapshotFromBytes decodes fuzz input into a well-formed CWG snapshot over
// a small VC universe: ownership is exclusive (a VC owned by an earlier
// message is skipped), wants lists are only attached to blocked messages.
// Each control byte encodes one message: bits 0-1 owned-VC count minus one,
// bit 2 blocked, bits 3-4 wants count; subsequent bytes supply VC ids.
func snapshotFromBytes(data []byte) []Msg {
	const universe = 24
	var owned [universe]bool
	var msgs []Msg
	id := message.ID(1)
	i := 0
	for i < len(data) {
		b := data[i]
		i++
		nOwn := int(b&0x3) + 1
		blocked := b&0x4 != 0
		nWant := int(b>>3) & 0x3
		var m Msg
		m.ID = id
		for k := 0; k < nOwn && i < len(data); k++ {
			vc := message.VC(data[i] % universe)
			i++
			if owned[vc] {
				continue
			}
			owned[vc] = true
			m.Owned = append(m.Owned, vc)
		}
		if len(m.Owned) == 0 {
			continue
		}
		if blocked {
			for k := 0; k < nWant && i < len(data); k++ {
				m.Wants = append(m.Wants, message.VC(data[i]%universe))
				i++
			}
			m.Blocked = len(m.Wants) > 0
		}
		msgs = append(msgs, m)
		id++
	}
	return msgs
}

// FuzzBuildEquivalence cross-validates the detection paths on random
// snapshots: the message graph must give the VC graph's Analysis (knot
// order included) and cycle count, the VC graph one arc per chain link and
// per want, and the Tarjan-based knot finder must agree with the naive
// per-vertex-reachability knot definition. The message graph's doomed set
// must be the messages whose head reaches no sink of the VC graph. It also
// rebuilds through the same message graph with interleaved foreign
// snapshots to prove the reused storage carries no state between builds.
func FuzzBuildEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 0x01, 0x05, 0x01, 0x00}) // 2-message swap knot
	f.Add([]byte{0x0d, 0x02, 0x03, 0x04})             // blocked chain with wants
	f.Add([]byte{0x01, 0x07, 0x08, 0x05, 0x09, 0x07}) // solid chains + wait
	// Two messages of two VCs, each wanting the other's first VC twice and
	// its second once: two arcs of weight 3, nine cycles.
	f.Add([]byte{0x1d, 0x00, 0x01, 0x02, 0x03, 0x02, 0x1d, 0x02, 0x03, 0x00, 0x01, 0x00})
	// A message wanting its own first VC (a self-loop knot) beside a pair
	// whose wait cycle escapes to a free VC.
	f.Add([]byte{0x0d, 0x04, 0x05, 0x04, 0x14, 0x06, 0x07, 0x09, 0x0c, 0x07, 0x06})
	// Three messages, each wanting the next one's middle and last VCs: the
	// knot starts part way along every chain.
	f.Add([]byte{0x16, 0x00, 0x01, 0x02, 0x04, 0x05, 0x16, 0x03, 0x04, 0x05, 0x07, 0x08, 0x16, 0x06, 0x07, 0x08, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		msgs := snapshotFromBytes(data)
		opts := Options{CountKnotCycles: true}
		g := Build(msgs)
		want := g.Analyze(opts)
		wantN, wantCapped := g.CountCycles(opts)
		arcs := 0
		for _, m := range msgs {
			arcs += len(m.Owned) - 1
			if m.Blocked {
				arcs += len(m.Wants)
			}
		}
		if g.NumEdges() != arcs {
			t.Fatalf("VC graph has %d arcs, the snapshot %d", g.NumEdges(), arcs)
		}

		// Naive knot definition on the VC graph.
		if fast, slow := g.FindKnots(), g.NaiveKnots(); !sameKnotSets(fast, slow) {
			t.Fatalf("knots disagree: tarjan=%v naive=%v", fast, slow)
		}

		alt := snapshotFromBytes(append([]byte{0xff, 0x13, 0x11, 0x0f, 0x07, 0x01}, data...))

		// The message graph: the same Analysis and census, also after a
		// foreign snapshot through its storage, and the doomed set.
		mg := NewMsgGraph(24)
		for round := 0; round < 2; round++ {
			mg.Build(msgs)
			if got := mg.Analyze(opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: message-graph analysis differs:\nVC  %+v\nmsg %+v", round, want, got)
			}
			if n, capped := mg.CountCycles(opts); n != wantN || capped != wantCapped {
				t.Fatalf("round %d: message-graph census %d (capped %v), the VC graph's %d (capped %v)", round, n, capped, wantN, wantCapped)
			}
			mg.Build(alt).Analyze(opts)
		}
		mg.Build(msgs)
		if got, want := mg.Doomed(nil), reachNoSink(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("doomed %v, the messages whose head reaches no VC-graph sink %v", got, want)
		}
	})
}

// reachNoSink returns, in snapshot order, the messages holding a VC whose
// head reaches no sink (a vertex without out-arcs) of the VC graph g.
func reachNoSink(g *Graph) []message.ID {
	var ids []message.ID
	for _, m := range g.msgs {
		if len(m.Owned) == 0 {
			continue
		}
		head := g.index[m.Owned[len(m.Owned)-1]]
		seen := map[int32]bool{head: true}
		stack := []int32{head}
		sink := false
		for len(stack) > 0 && !sink {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sink = len(g.adj[v]) == 0
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		if !sink {
			ids = append(ids, m.ID)
		}
	}
	return ids
}
