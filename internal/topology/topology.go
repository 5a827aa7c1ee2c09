// Package topology models k-ary n-cube (torus) interconnection networks:
// node/coordinate arithmetic, physical channel enumeration, minimal routing
// offsets, distances and the capacity figures needed to normalize offered
// load, for both unidirectional and bidirectional channel configurations.
//
// A k-ary n-cube has k^n nodes arranged in n dimensions of radix k with
// wraparound links. Every node has one outgoing physical channel per
// dimension per direction (one direction for unidirectional tori, two for
// bidirectional). Injection and reception channels are modeled by the
// network layer, not here.
package topology

import (
	"fmt"
)

// Direction selects one of the two travel directions within a dimension.
type Direction int8

const (
	// Plus is the increasing-coordinate direction (the only direction
	// available in a unidirectional torus).
	Plus Direction = 0
	// Minus is the decreasing-coordinate direction.
	Minus Direction = 1
)

// String returns "+" or "-".
func (d Direction) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// ChannelID densely indexes the physical network channels of a torus, in
// [0, NumChannels()).
type ChannelID int32

// None is the sentinel for "no channel".
const None ChannelID = -1

// Torus describes a k-ary n-cube (wraparound links) or, with wrap disabled,
// a k-ary n-mesh. It is immutable after construction and safe for concurrent
// use.
type Torus struct {
	k             int
	n             int
	bidirectional bool
	wrap          bool
	nodes         int
	dirs          int   // 1 or 2
	strides       []int // strides[d] = k^d, for coordinate math
	// coords[node*n+d] is node's coordinate along dimension d. Routing asks
	// for coordinates on every header move; reading them here instead of
	// computing node / k^d % k keeps division out of the cycle.
	coords []int32
}

// New constructs a k-ary n-cube torus. k must be at least 2 and n at least 1.
func New(k, n int, bidirectional bool) (*Torus, error) {
	return build(k, n, bidirectional, true)
}

// NewMesh constructs a k-ary n-mesh: the same node arrangement without
// wraparound links. Meshes are always bidirectional (a unidirectional mesh
// is not connected). On a mesh, dimension-order routing is deadlock-free
// even with a single virtual channel, and the turn-model algorithms
// (routing.NegativeFirst, routing.WestFirst) apply.
func NewMesh(k, n int) (*Torus, error) {
	return build(k, n, true, false)
}

// MustNewMesh is NewMesh but panics on error.
func MustNewMesh(k, n int) *Torus {
	t, err := NewMesh(k, n)
	if err != nil {
		panic(err)
	}
	return t
}

func build(k, n int, bidirectional, wrap bool) (*Torus, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: radix k must be >= 2, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: dimension count n must be >= 1, got %d", n)
	}
	if !wrap && !bidirectional {
		return nil, fmt.Errorf("topology: a unidirectional mesh is not connected")
	}
	nodes := 1
	strides := make([]int, n)
	for d := 0; d < n; d++ {
		strides[d] = nodes
		if nodes > 1<<26/k {
			return nil, fmt.Errorf("topology: %d-ary %d-cube is too large", k, n)
		}
		nodes *= k
	}
	dirs := 1
	if bidirectional {
		dirs = 2
	}
	// Node ids count in base k, dimension 0 fastest: each row is the one
	// before it plus one, with carry.
	coords := make([]int32, nodes*n)
	for i := n; i < len(coords); i += n {
		c := coords[i : i+n]
		copy(c, coords[i-n:i])
		d := 0
		for ; int(c[d]) == k-1; d++ {
			c[d] = 0
		}
		c[d]++
	}
	return &Torus{k: k, n: n, bidirectional: bidirectional, wrap: wrap,
		nodes: nodes, dirs: dirs, strides: strides, coords: coords}, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// constant parameters.
func MustNew(k, n int, bidirectional bool) *Torus {
	t, err := New(k, n, bidirectional)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the radix (nodes per dimension).
func (t *Torus) K() int { return t.k }

// N returns the number of dimensions.
func (t *Torus) N() int { return t.n }

// Bidirectional reports whether each dimension has channels in both
// directions.
func (t *Torus) Bidirectional() bool { return t.bidirectional }

// Wrap reports whether the topology has wraparound links (torus) or not
// (mesh).
func (t *Torus) Wrap() bool { return t.wrap }

// Nodes returns the number of nodes, k^n.
func (t *Torus) Nodes() int { return t.nodes }

// Dirs returns the number of directions per dimension (1 or 2).
func (t *Torus) Dirs() int { return t.dirs }

// Coord writes the n-dimensional coordinates of node into buf (which is
// grown if needed) and returns it. Dimension 0 is the fastest-varying.
func (t *Torus) Coord(node int, buf []int) []int {
	if cap(buf) < t.n {
		buf = make([]int, t.n)
	}
	buf = buf[:t.n]
	for d := 0; d < t.n; d++ {
		buf[d] = node % t.k
		node /= t.k
	}
	return buf
}

// CoordOf returns the coordinate of node along dimension dim without
// materializing the full coordinate vector.
func (t *Torus) CoordOf(node, dim int) int {
	return int(t.coords[node*t.n+dim])
}

// Node returns the node id with the given coordinates. Coordinates are
// reduced modulo k, so callers may pass unnormalized values.
func (t *Torus) Node(coord []int) int {
	if len(coord) != t.n {
		panic(fmt.Sprintf("topology: Node wants %d coordinates, got %d", t.n, len(coord)))
	}
	id := 0
	for d := t.n - 1; d >= 0; d-- {
		c := coord[d] % t.k
		if c < 0 {
			c += t.k
		}
		id = id*t.k + c
	}
	return id
}

// Neighbor returns the node reached from node by one hop along dim in
// direction dir. On a mesh it panics when the hop would leave the grid (use
// ChannelExists to guard).
func (t *Torus) Neighbor(node, dim int, dir Direction) int {
	c := t.CoordOf(node, dim)
	var nc int
	if dir == Plus {
		nc = c + 1
		if nc == t.k {
			if !t.wrap {
				panic("topology: Neighbor off the edge of a mesh")
			}
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			if !t.wrap {
				panic("topology: Neighbor off the edge of a mesh")
			}
			nc = t.k - 1
		}
	}
	return node + (nc-c)*t.strides[dim]
}

// NumChannels returns the size of the dense channel id space,
// nodes * n * dirs. On a torus every id is a real channel; on a mesh the
// would-be wraparound ids exist in the id space but are never valid (see
// ChannelExists) — LinkCount gives the number of real links.
func (t *Torus) NumChannels() int { return t.nodes * t.n * t.dirs }

// LinkCount returns the number of physical links that actually exist.
func (t *Torus) LinkCount() int {
	if t.wrap {
		return t.NumChannels()
	}
	// Each dimension loses the k^(n-1) edge channels per direction.
	perDim := (t.k - 1) * t.nodes / t.k * t.dirs
	return perDim * t.n
}

// ChannelExists reports whether the channel id denotes a real link (always
// true on a torus; false for mesh edge wraparounds).
func (t *Torus) ChannelExists(c ChannelID) bool {
	if t.wrap {
		return true
	}
	coord := t.channelCoord(c)
	if t.ChannelDir(c) == Plus {
		return coord != t.k-1
	}
	return coord != 0
}

// Channel returns the id of the physical channel leaving node along dim in
// direction dir. In a unidirectional torus dir must be Plus.
func (t *Torus) Channel(node, dim int, dir Direction) ChannelID {
	if !t.bidirectional && dir != Plus {
		panic("topology: Minus channel requested in unidirectional torus")
	}
	return ChannelID((node*t.n+dim)*t.dirs + int(dir))
}

// ChannelSrc returns the node the channel leaves from.
func (t *Torus) ChannelSrc(c ChannelID) int { return int(c) / (t.n * t.dirs) }

// ChannelDim returns the dimension the channel travels along.
func (t *Torus) ChannelDim(c ChannelID) int { return int(c) / t.dirs % t.n }

// ChannelDir returns the direction the channel travels in.
func (t *Torus) ChannelDir(c ChannelID) Direction { return Direction(int(c) & (t.dirs - 1)) }

// channelCoord returns the coordinate of the channel's source node along the
// channel's dimension: a channel id is (node*n+dim)*dirs + dir, so dropping
// the direction leaves the index into coords.
func (t *Torus) channelCoord(c ChannelID) int { return int(t.coords[int(c)>>(t.dirs-1)]) }

// ChannelDst returns the node the channel arrives at.
func (t *Torus) ChannelDst(c ChannelID) int {
	return t.Neighbor(t.ChannelSrc(c), t.ChannelDim(c), t.ChannelDir(c))
}

// OutChannels appends the real channels leaving node to buf and returns it
// (mesh edge wraparounds are skipped).
func (t *Torus) OutChannels(node int, buf []ChannelID) []ChannelID {
	for dim := 0; dim < t.n; dim++ {
		for d := 0; d < t.dirs; d++ {
			ch := t.Channel(node, dim, Direction(d))
			if t.ChannelExists(ch) {
				buf = append(buf, ch)
			}
		}
	}
	return buf
}

// ChannelString renders a channel as "src -(dim,dir)-> dst" for debugging
// and DOT output.
func (t *Torus) ChannelString(c ChannelID) string {
	return fmt.Sprintf("%d-(d%d%s)->%d", t.ChannelSrc(c), t.ChannelDim(c), t.ChannelDir(c), t.ChannelDst(c))
}

// CrossesDateline reports whether the channel is the wraparound link of its
// dimension: the Plus channel leaving coordinate k-1, or the Minus channel
// leaving coordinate 0. Dateline crossings drive VC-class switching in
// deadlock-avoidance routing (see routing.DatelineDOR).
func (t *Torus) CrossesDateline(c ChannelID) bool {
	if !t.wrap {
		return false // meshes have no wraparound links
	}
	coord := t.channelCoord(c)
	if t.ChannelDir(c) == Plus {
		return coord == t.k-1
	}
	return coord == 0
}

// Offset returns the minimal signed hop count from src to dst along dim:
// positive values mean dir Plus, negative mean dir Minus. In a
// unidirectional torus the result is always >= 0. Ties at distance k/2 in a
// bidirectional torus resolve to Plus, deterministically.
func (t *Torus) Offset(src, dst, dim int) int {
	delta := t.CoordOf(dst, dim) - t.CoordOf(src, dim)
	if !t.wrap {
		return delta // mesh: plain signed difference
	}
	if delta < 0 {
		delta += t.k
	}
	if !t.bidirectional {
		return delta
	}
	if 2*delta > t.k {
		return delta - t.k
	}
	return delta
}

// Distance returns the minimal hop count from src to dst under the torus's
// channel configuration.
func (t *Torus) Distance(src, dst int) int {
	d := 0
	for dim := 0; dim < t.n; dim++ {
		o := t.Offset(src, dst, dim)
		if o < 0 {
			o = -o
		}
		d += o
	}
	return d
}

// AvgDistance returns the exact average internode distance over all ordered
// pairs of distinct nodes, the normalization the paper uses to compare
// offered loads across uni/bi tori and different node degrees.
func (t *Torus) AvgDistance() float64 {
	var pairSum float64 // Σ over ordered coordinate pairs of per-dim distance
	if t.wrap {
		// Per-dimension sum of minimal distances over all k deltas,
		// uniform over k^2 ordered coordinate pairs.
		s := 0
		for delta := 0; delta < t.k; delta++ {
			d := delta
			if t.bidirectional && 2*delta > t.k {
				d = t.k - delta
			}
			s += d
		}
		pairSum = float64(s) * float64(t.k)
	} else {
		// Mesh: Σ_{i,j} |i-j| = k(k²-1)/3.
		pairSum = float64(t.k) * float64(t.k*t.k-1) / 3
	}
	// Sum over all ordered (src,dst) node pairs of total distance is
	// nodes^2 * n * pairSum / k^2; divide by nodes*(nodes-1) distinct pairs.
	return float64(t.nodes) * float64(t.n) * pairSum /
		float64(t.k*t.k) / float64(t.nodes-1)
}

// CapacityPerNode returns the network capacity in flits per cycle per node:
// total link bandwidth (one flit per cycle per physical channel) divided by
// the flit-hops each delivered flit consumes on average (nodes * average
// internode distance). Offered load 1.0 corresponds to every node injecting
// at this flit rate.
func (t *Torus) CapacityPerNode() float64 {
	return float64(t.LinkCount()) / (float64(t.nodes) * t.AvgDistance())
}

// String describes the topology, e.g. "16-ary 2-cube (bidirectional)" or
// "8-ary 2-mesh".
func (t *Torus) String() string {
	if !t.wrap {
		return fmt.Sprintf("%d-ary %d-mesh", t.k, t.n)
	}
	dir := "unidirectional"
	if t.bidirectional {
		dir = "bidirectional"
	}
	return fmt.Sprintf("%d-ary %d-cube (%s)", t.k, t.n, dir)
}
