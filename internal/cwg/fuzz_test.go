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
		got, capped := c.countAll(g)
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

// referenceBuild is the construction Build used before it became a
// throwaway Builder: vertices numbered through a map in first-encounter
// order, adjacency appended edge by edge. It shares no construction code
// with Builder.Build; only the finished VC -> vertex map is copied into a
// vcTable, which is what a Graph looks vertices up in.
func referenceBuild(msgs []Msg) *Graph {
	g := &Graph{msgs: msgs, tbl: &vcTable{epoch: 1}}
	index := make(map[message.VC]int32)
	vertex := func(vc message.VC) int32 {
		if i, ok := index[vc]; ok {
			return i
		}
		i := int32(len(g.verts))
		index[vc] = i
		g.tbl.assign(vc, i)
		g.verts = append(g.verts, vc)
		g.adj = append(g.adj, nil)
		g.owner = append(g.owner, -1)
		return i
	}
	edge := func(from, to int32) {
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
			edge(prev, v)
			prev = v
		}
		if m.Blocked {
			for _, vc := range m.Wants {
				edge(prev, vertex(vc))
			}
		}
	}
	return g
}

// FuzzBuildEquivalence cross-validates the three detection paths on random
// snapshots: the pooled/dense Builder must produce analyses identical to
// the map-indexed reference construction, and the Tarjan-based knot finder
// must agree with the naive per-vertex-reachability knot definition. It
// also rebuilds through the same Builder with interleaved foreign snapshots
// to prove the reused arenas carry no state between builds.
func FuzzBuildEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 0x01, 0x05, 0x01, 0x00}) // 2-message swap knot
	f.Add([]byte{0x0d, 0x02, 0x03, 0x04})             // blocked chain with wants
	f.Add([]byte{0x01, 0x07, 0x08, 0x05, 0x09, 0x07}) // solid chains + wait
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		msgs := snapshotFromBytes(data)
		opts := Options{CountKnotCycles: true}
		legacy := referenceBuild(msgs)
		want := legacy.Analyze(opts)
		wantN, wantCapped := legacy.CountCycles(opts)

		b := NewBuilder(24)
		dense := b.Build(msgs)
		if legacy.NumVertices() != dense.NumVertices() || legacy.NumEdges() != dense.NumEdges() {
			t.Fatalf("graph shape differs: legacy V=%d E=%d dense V=%d E=%d",
				legacy.NumVertices(), legacy.NumEdges(), dense.NumVertices(), dense.NumEdges())
		}
		for i, vc := range legacy.VCs() {
			if dense.VCs()[i] != vc {
				t.Fatalf("vertex numbering differs at %d: legacy %d dense %d", i, vc, dense.VCs()[i])
			}
		}
		got := dense.Analyze(opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("analysis differs:\nlegacy %+v\ndense  %+v", want, got)
		}
		if n, capped := dense.CountCycles(opts); n != wantN || capped != wantCapped {
			t.Fatalf("cycle count differs: legacy %d (capped %v), dense %d (capped %v)", wantN, wantCapped, n, capped)
		}

		// Naive knot definition on the dense graph.
		if fast, slow := dense.FindKnots(), dense.NaiveKnots(); !sameKnotSets(fast, slow) {
			t.Fatalf("knots disagree: tarjan=%v naive=%v", fast, slow)
		}

		// Arena-reuse: run a different snapshot through the same builder,
		// then rebuild the original and demand the identical analysis.
		alt := snapshotFromBytes(append([]byte{0xff, 0x13, 0x11, 0x0f, 0x07, 0x01}, data...))
		b.Build(alt).Analyze(opts)
		g2 := b.Build(msgs)
		got2 := g2.Analyze(opts)
		if n, capped := g2.CountCycles(opts); n != wantN || capped != wantCapped {
			t.Fatalf("cycle count changed after arena reuse: %d (capped %v), first %d (capped %v)", n, capped, wantN, wantCapped)
		}
		if !reflect.DeepEqual(got2, want) {
			t.Fatalf("analysis changed after arena reuse:\nfirst  %+v\nsecond %+v", want, got2)
		}
	})
}
