// Package traffic implements the workload side of the study: the paper's
// synthetic traffic patterns (uniform, bit-reversal, matrix-transpose,
// perfect-shuffle, hot-spot, plus tornado and nearest-neighbor extras) and
// the Bernoulli injection process that converts a normalized offered load —
// a fraction of network capacity, computed from total link bandwidth and
// average internode distance exactly as in the paper — into per-node,
// per-cycle message generation.
package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"flexsim/internal/rng"
	"flexsim/internal/topology"
)

// Pattern maps a source node to a destination node. Randomized patterns
// draw from r; permutation patterns ignore it. A pattern may return
// dst == src (e.g. fixed points of bit-reversal); the injection process
// skips such messages, as is conventional.
type Pattern interface {
	Name() string
	Dest(src int, r *rng.Source) int
}

// Uniform sends each message to a destination drawn uniformly from all
// other nodes.
type Uniform struct{ nodes int }

// NewUniform returns uniform random traffic over t's nodes.
func NewUniform(t topology.Network) Uniform { return Uniform{nodes: t.Nodes()} }

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src int, r *rng.Source) int {
	d := r.Intn(u.nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// BitReversal sends node b_{n-1}...b_1b_0 to node b_0b_1...b_{n-1}
// (reversal of the node-id bits). Requires a power-of-two node count.
type BitReversal struct{ bits int }

// NewBitReversal returns bit-reversal traffic; it errors unless the node
// count is a power of two.
func NewBitReversal(t topology.Network) (BitReversal, error) {
	n := t.Nodes()
	if n&(n-1) != 0 {
		return BitReversal{}, fmt.Errorf("traffic: bit-reversal needs a power-of-two node count, got %d", n)
	}
	return BitReversal{bits: bits.Len(uint(n)) - 1}, nil
}

// Name implements Pattern.
func (BitReversal) Name() string { return "bit-reversal" }

// Dest implements Pattern.
func (p BitReversal) Dest(src int, _ *rng.Source) int {
	return int(bits.Reverse64(uint64(src)) >> (64 - uint(p.bits)))
}

// Transpose is matrix-transpose traffic. For an even number of dimensions
// it swaps the first and second halves of the coordinate vector (for a 2-D
// torus: (x, y) -> (y, x)); otherwise it falls back to swapping the upper
// and lower halves of the node-id bits (which requires a power-of-two node
// count).
type Transpose struct {
	t       *topology.Torus
	bitHalf int // 0 when coordinate transpose applies
}

// NewTranspose returns matrix-transpose traffic.
func NewTranspose(t *topology.Torus) (Transpose, error) {
	if t.N()%2 == 0 {
		return Transpose{t: t}, nil
	}
	n := t.Nodes()
	if n&(n-1) != 0 {
		return Transpose{}, fmt.Errorf("traffic: transpose on odd dimensions needs a power-of-two node count, got %d", n)
	}
	b := bits.Len(uint(n)) - 1
	if b%2 != 0 {
		return Transpose{}, fmt.Errorf("traffic: transpose needs an even number of id bits, got %d", b)
	}
	return Transpose{t: t, bitHalf: b / 2}, nil
}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (p Transpose) Dest(src int, _ *rng.Source) int {
	if p.bitHalf > 0 {
		lo := src & (1<<uint(p.bitHalf) - 1)
		hi := src >> uint(p.bitHalf)
		return lo<<uint(p.bitHalf) | hi
	}
	t := p.t
	coord := t.Coord(src, make([]int, t.N()))
	h := t.N() / 2
	for i := 0; i < h; i++ {
		coord[i], coord[i+h] = coord[i+h], coord[i]
	}
	return t.Node(coord)
}

// PerfectShuffle rotates the node-id bits left by one position. Requires a
// power-of-two node count.
type PerfectShuffle struct{ bits int }

// NewPerfectShuffle returns perfect-shuffle traffic.
func NewPerfectShuffle(t topology.Network) (PerfectShuffle, error) {
	n := t.Nodes()
	if n&(n-1) != 0 {
		return PerfectShuffle{}, fmt.Errorf("traffic: perfect-shuffle needs a power-of-two node count, got %d", n)
	}
	return PerfectShuffle{bits: bits.Len(uint(n)) - 1}, nil
}

// Name implements Pattern.
func (PerfectShuffle) Name() string { return "perfect-shuffle" }

// Dest implements Pattern.
func (p PerfectShuffle) Dest(src int, _ *rng.Source) int {
	mask := 1<<uint(p.bits) - 1
	return (src<<1 | src>>uint(p.bits-1)) & mask
}

// HotSpot sends a fraction of the traffic to a small set of hot nodes and
// the rest uniformly.
type HotSpot struct {
	uniform Uniform
	hot     []int
	frac    float64
}

// NewHotSpot returns hot-spot traffic: each message goes to one of the hot
// nodes with probability frac, otherwise to a uniform destination. If hot is
// empty, node 0 is the hot spot.
func NewHotSpot(t topology.Network, hot []int, frac float64) HotSpot {
	if len(hot) == 0 {
		hot = []int{0}
	}
	return HotSpot{uniform: NewUniform(t), hot: hot, frac: frac}
}

// Name implements Pattern.
func (h HotSpot) Name() string { return "hot-spot" }

// Dest implements Pattern.
func (h HotSpot) Dest(src int, r *rng.Source) int {
	if r.Bernoulli(h.frac) {
		return h.hot[r.Intn(len(h.hot))]
	}
	return h.uniform.Dest(src, r)
}

// Tornado sends each message almost halfway around every dimension
// (offset ceil(k/2)-1), the classic adversarial pattern for tori.
type Tornado struct{ t *topology.Torus }

// NewTornado returns tornado traffic.
func NewTornado(t *topology.Torus) Tornado { return Tornado{t: t} }

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (p Tornado) Dest(src int, _ *rng.Source) int {
	t := p.t
	off := (t.K()+1)/2 - 1
	coord := t.Coord(src, make([]int, t.N()))
	for d := range coord {
		coord[d] = (coord[d] + off) % t.K()
	}
	return t.Node(coord)
}

// Neighbor sends each message to a uniformly chosen adjacent node.
type Neighbor struct{ t *topology.Torus }

// NewNeighbor returns nearest-neighbor traffic.
func NewNeighbor(t *topology.Torus) Neighbor { return Neighbor{t: t} }

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (p Neighbor) Dest(src int, r *rng.Source) int {
	t := p.t
	for {
		dim := r.Intn(t.N())
		dir := topology.Plus
		if t.Bidirectional() && r.Intn(2) == 1 {
			dir = topology.Minus
		}
		// Mesh edges have no neighbor in some directions; resample.
		// Every node has at least one neighbor (k >= 2), so this
		// terminates.
		if !t.ChannelExists(t.Channel(src, dim, dir)) {
			continue
		}
		return t.Neighbor(src, dim, dir)
	}
}

// ByName constructs the named pattern for t. hotFrac applies to "hotspot"
// only (0 means the conventional 10%). Coordinate-based patterns (transpose,
// tornado, neighbor) require a k-ary n-cube or mesh.
func ByName(name string, t topology.Network, hotFrac float64) (Pattern, error) {
	needTorus := func() (*topology.Torus, error) {
		tor, ok := t.(*topology.Torus)
		if !ok {
			return nil, fmt.Errorf("traffic: pattern %q needs a k-ary n-cube/mesh, not %s", name, t)
		}
		return tor, nil
	}
	switch name {
	case "uniform":
		return NewUniform(t), nil
	case "bitrev", "bit-reversal":
		return NewBitReversal(t)
	case "transpose":
		tor, err := needTorus()
		if err != nil {
			return nil, err
		}
		return NewTranspose(tor)
	case "shuffle", "perfect-shuffle":
		return NewPerfectShuffle(t)
	case "hotspot", "hot-spot":
		if hotFrac <= 0 {
			hotFrac = 0.10
		}
		return NewHotSpot(t, nil, hotFrac), nil
	case "tornado":
		tor, err := needTorus()
		if err != nil {
			return nil, err
		}
		return NewTornado(tor), nil
	case "neighbor":
		tor, err := needTorus()
		if err != nil {
			return nil, err
		}
		return NewNeighbor(tor), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (have %v)", name, Names())
	}
}

// Names returns the recognized pattern names.
func Names() []string {
	n := []string{"uniform", "bitrev", "transpose", "shuffle", "hotspot", "tornado", "neighbor"}
	sort.Strings(n)
	return n
}

// Process converts a normalized offered load into Bernoulli message
// generation: every node independently starts a new message each cycle with
// probability
//
//	p = load × CapacityPerNode(torus) / messageLength
//
// so that load 1.0 offers exactly the network capacity in flits, with
// capacity normalized by total link bandwidth and average internode
// distance as in the paper (which makes loads comparable across uni/bi
// tori and different node degrees).
type Process struct {
	pattern Pattern
	lengths LengthDist
	nodes   int
	prob    float64
	thresh  uint64 // ceil(prob·2⁵³): a draw's top 53 bits below it is a success
	r       *rng.Source

	// Generated counts messages handed to inject (self-addressed draws
	// are skipped and not counted); GeneratedFlits sums their lengths.
	Generated      int64
	GeneratedFlits int64
}

// NewProcess builds an injection process at the given normalized load with
// message lengths drawn from dist (the mean length normalizes the rate).
func NewProcess(t topology.Network, p Pattern, load float64, dist LengthDist, r *rng.Source) *Process {
	proc := &Process{
		pattern: p,
		lengths: dist,
		nodes:   t.Nodes(),
		prob:    load * t.CapacityPerNode() / dist.Mean(),
		r:       r,
	}
	if proc.prob > 0 && proc.prob < 1 {
		proc.thresh = uint64(math.Ceil(proc.prob * (1 << 53)))
	}
	return proc
}

// MessageProb returns the per-node per-cycle generation probability.
func (p *Process) MessageProb() float64 { return p.prob }

// Generate draws this cycle's new messages and hands them to inject: one
// Bernoulli(prob) trial per node in node order, scanned for its successes.
func (p *Process) Generate(inject func(src, dst, length int)) {
	if p.prob <= 0 {
		return
	}
	for src := 0; ; src++ {
		if p.prob < 1 {
			src += p.r.FirstBelow(p.thresh, p.nodes-src)
		}
		if src >= p.nodes {
			return
		}
		dst := p.pattern.Dest(src, p.r)
		if dst == src {
			continue
		}
		length := p.lengths.Sample(p.r)
		p.Generated++
		p.GeneratedFlits += int64(length)
		inject(src, dst, length)
	}
}
