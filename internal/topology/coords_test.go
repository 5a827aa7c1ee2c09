package topology

import (
	"runtime"
	"strings"
	"testing"
)

// refCoord is the coordinate arithmetic Torus used before it carried a
// table: node / k^dim % k. The functions below rebuild every coordinate
// question on it; TestCoordTableMatchesArithmetic holds the table to them.
func refCoord(t *Torus, node, dim int) int { return node / t.strides[dim] % t.k }

func refOffset(t *Torus, src, dst, dim int) int {
	delta := refCoord(t, dst, dim) - refCoord(t, src, dim)
	switch {
	case !t.wrap:
		return delta
	case delta < 0:
		delta += t.k
	}
	if t.bidirectional && 2*delta > t.k {
		return delta - t.k
	}
	return delta
}

// refEdge reports whether channel c leaves the last coordinate of its
// dimension in its direction: a torus's dateline link, a mesh's missing one.
func refEdge(t *Torus, c ChannelID) bool {
	src, dim, dir := int(c)/(t.n*t.dirs), int(c)/t.dirs%t.n, int(c)%t.dirs
	if dir == int(Plus) {
		return refCoord(t, src, dim) == t.k-1
	}
	return refCoord(t, src, dim) == 0
}

// TestCoordTableMatchesArithmetic compares CoordOf, Neighbor, ChannelExists
// and CrossesDateline for every node and channel, and Offset and Distance for
// every node pair, with the division form, on every torus and mesh with k in
// 2..9 and n in 1..4 (14 s). With -short, pairs are exhaustive up to 256
// nodes only; above that every source meets every step-th destination, the
// residue moving with the source so that all coordinate pairs still occur.
func TestCoordTableMatchesArithmetic(t *testing.T) {
	for k := 2; k <= 9; k++ {
		for n := 1; n <= 4; n++ {
			for _, topo := range []*Torus{MustNew(k, n, false), MustNew(k, n, true), MustNewMesh(k, n)} {
				checkCoords(t, topo)
			}
		}
	}
}

func checkCoords(t *testing.T, topo *Torus) {
	t.Helper()
	nodes, n := topo.Nodes(), topo.N()
	for node := 0; node < nodes; node++ {
		for dim := 0; dim < n; dim++ {
			c := refCoord(topo, node, dim)
			if got := topo.CoordOf(node, dim); got != c {
				t.Fatalf("%s: CoordOf(%d, %d) = %d, arithmetic says %d", topo, node, dim, got, c)
			}
			for d := 0; d < topo.Dirs(); d++ {
				ch := topo.Channel(node, dim, Direction(d))
				edge := refEdge(topo, ch)
				if got := topo.CrossesDateline(ch); got != (topo.wrap && edge) {
					t.Fatalf("%s: CrossesDateline(%s) = %v", topo, topo.ChannelString(ch), got)
				}
				if got := topo.ChannelExists(ch); got != (topo.wrap || !edge) {
					t.Fatalf("%s: ChannelExists(%d) = %v", topo, ch, got)
				}
				if !topo.ChannelExists(ch) {
					continue
				}
				step := 1 - 2*d // Plus: +1, Minus: -1
				want := node + ((c+step+topo.k)%topo.k-c)*topo.strides[dim]
				if got := topo.Neighbor(node, dim, Direction(d)); got != want {
					t.Fatalf("%s: Neighbor(%d, %d, %s) = %d, arithmetic says %d", topo, node, dim, Direction(d), got, want)
				}
			}
		}
	}
	step := 1
	if testing.Short() && nodes > 256 {
		step = nodes/128 | 1
	}
	for src := 0; src < nodes; src++ {
		for dst := src % step; dst < nodes; dst += step {
			dist := 0
			for dim := 0; dim < n; dim++ {
				o := refOffset(topo, src, dst, dim)
				if got := topo.Offset(src, dst, dim); got != o {
					t.Fatalf("%s: Offset(%d, %d, %d) = %d, arithmetic says %d", topo, src, dst, dim, got, o)
				}
				dist += max(o, -o)
			}
			if got := topo.Distance(src, dst); got != dist {
				t.Fatalf("%s: Distance(%d, %d) = %d, arithmetic says %d", topo, src, dst, got, dist)
			}
		}
	}
}

// TestTooLargeBeforeTable pins the order in build: the size guard answers
// before the coordinate table is allocated. 2^27 nodes × 27 dimensions would
// be a 14 GiB table; the refusal must cost an error value and nothing else.
func TestTooLargeBeforeTable(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(2, 27, true)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("New(2, 27) = %v, want a too-large refusal", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing a too-large torus allocated %d bytes; is the table built before the guard?", grew)
	}
}
