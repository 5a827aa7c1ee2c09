package cwg

// Pooled, dense CWG construction: the one construction path.
//
// A detector rebuilds the CWG every 50 cycles over a fixed VC universe, so
// a Builder keys vertices through a dense epoch-stamped array indexed by
// the network's global VC numbering (see network.TotalVCs) and reuses
// every piece of backing storage across invocations: the vertex, owner and
// adjacency-header slices, plus a single flat edge slice that the per-vertex
// adjacency lists are carved from (offsets + exact capacities). After the
// first few snapshots warm the arenas, Builder.Build performs zero heap
// allocations.
//
// Vertices are numbered in first-encounter order and edges emitted in
// message order; the fuzzer in fuzz_test.go holds both, and every analysis
// result, to a map-indexed reference construction on random snapshots.

import "flexsim/internal/message"

// vcTable maps VC ids to dense vertex indices via an epoch-stamped array:
// bumping the epoch invalidates every entry in O(1), so no per-build clear
// of the (fixed-size) VC universe is needed.
type vcTable struct {
	slot  []int32
	stamp []uint64
	epoch uint64
}

// lookup returns vc's vertex index in the current build, if assigned.
func (t *vcTable) lookup(vc message.VC) (int32, bool) {
	i := int(vc)
	if i < 0 || i >= len(t.slot) || t.stamp[i] != t.epoch {
		return -1, false
	}
	return t.slot[i], true
}

// assign records vc -> v for the current build, growing the table if the
// snapshot mentions a VC beyond the declared universe.
func (t *vcTable) assign(vc message.VC, v int32) {
	i := int(vc)
	if i >= len(t.slot) {
		grown := make([]int32, i+1+len(t.slot))
		copy(grown, t.slot)
		t.slot = grown
		stamps := make([]uint64, len(grown))
		copy(stamps, t.stamp)
		t.stamp = stamps
	}
	t.slot[i] = v
	t.stamp[i] = t.epoch
}

// Builder constructs CWGs into reusable storage. A Builder (and the graphs
// it returns — each Build call returns the same *Graph, overwritten) is not
// safe for concurrent use; each detector owns one.
type Builder struct {
	g       Graph
	tbl     vcTable
	deg     []int32 // per-vertex out-degree (build pass 1)
	off     []int32 // per-vertex offset into edgeBuf
	edgeBuf []int32 // flat edge storage backing g.adj
}

// NewBuilder returns a builder for snapshots over a VC id space of
// totalVCs ids (0..totalVCs-1). VC ids must be non-negative; ids at or
// beyond totalVCs are accepted but cost a table growth on first sight.
func NewBuilder(totalVCs int) *Builder {
	if totalVCs < 0 {
		totalVCs = 0
	}
	b := &Builder{}
	b.tbl.slot = make([]int32, totalVCs)
	b.tbl.stamp = make([]uint64, totalVCs)
	b.g.tbl = &b.tbl
	return b
}

// Build constructs the CWG for a snapshot into the builder's pooled
// storage and returns it. The returned graph, including every slice
// reachable from it and its analysis results that alias scratch, is valid
// only until the next Build call on this builder. Messages with no owned
// VCs are ignored (they hold no resources and cannot participate).
func (b *Builder) Build(msgs []Msg) *Graph {
	g := &b.g
	g.msgs = msgs
	g.verts = g.verts[:0]
	g.owner = g.owner[:0]
	b.deg = b.deg[:0]
	b.tbl.epoch++

	// Pass 1: assign dense vertex indices in first-encounter order and
	// count out-degrees.
	for mi := range msgs {
		m := &msgs[mi]
		if len(m.Owned) == 0 {
			continue
		}
		prev := b.vertex(m.Owned[0])
		g.owner[prev] = int32(mi)
		for _, vc := range m.Owned[1:] {
			v := b.vertex(vc)
			g.owner[v] = int32(mi)
			b.deg[prev]++
			prev = v
		}
		if m.Blocked {
			for _, vc := range m.Wants {
				b.vertex(vc)
				b.deg[prev]++
			}
		}
	}

	// Carve per-vertex adjacency lists out of one flat edge slice with
	// exact capacities, so pass 2's appends write in place.
	n := len(g.verts)
	total := 0
	for _, d := range b.deg {
		total += int(d)
	}
	b.off = growI32(b.off, n)
	b.edgeBuf = growI32(b.edgeBuf, total)
	g.adj = growLists(g.adj, n)
	run := int32(0)
	for i := 0; i < n; i++ {
		b.off[i] = run
		end := run + b.deg[i]
		g.adj[i] = b.edgeBuf[run:run:end]
		run = end
	}

	// Pass 2: emit edges in message order.
	for mi := range msgs {
		m := &msgs[mi]
		if len(m.Owned) == 0 {
			continue
		}
		prev := b.mustLookup(m.Owned[0])
		for _, vc := range m.Owned[1:] {
			v := b.mustLookup(vc)
			g.adj[prev] = append(g.adj[prev], v)
			prev = v
		}
		if m.Blocked {
			for _, vc := range m.Wants {
				g.adj[prev] = append(g.adj[prev], b.mustLookup(vc))
			}
		}
	}
	g.edges = total
	g.work = Work{}
	return g
}

// vertex returns vc's dense index, assigning the next one on first sight.
func (b *Builder) vertex(vc message.VC) int32 {
	if v, ok := b.tbl.lookup(vc); ok {
		return v
	}
	v := int32(len(b.g.verts))
	b.tbl.assign(vc, v)
	b.g.verts = append(b.g.verts, vc)
	b.g.owner = append(b.g.owner, -1)
	b.deg = append(b.deg, 0)
	return v
}

func (b *Builder) mustLookup(vc message.VC) int32 {
	v, ok := b.tbl.lookup(vc)
	if !ok {
		panic("cwg: builder lookup of unassigned VC")
	}
	return v
}
