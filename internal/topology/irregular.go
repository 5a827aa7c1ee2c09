package topology

// Irregular switch networks — the paper's first-listed future-work item
// ("the effect of irregular network topology ... on deadlock").
//
// An Irregular is a random connected undirected graph of switches; every
// undirected link contributes one channel in each direction. Links are
// oriented for up*/down* routing (Autonet-style, as used by networks of
// workstations such as Myrinet in the paper's related work): a breadth-first
// spanning tree from node 0 assigns each node a level, and a link's "up" end
// is the endpoint closer to the root (ties broken by lower node id). A legal
// up*/down* route never traverses an up channel after a down channel, which
// breaks every channel dependency cycle; unrestricted shortest-path adaptive
// routing, by contrast, can deadlock.

import (
	"fmt"

	"flexsim/internal/rng"
)

// Irregular is a connected irregular switch network. Construct with
// NewIrregular; immutable and safe for concurrent use afterwards.
type Irregular struct {
	nodes int
	// adjacency: per node, the channel ids leaving it.
	out [][]ChannelID
	// per channel: endpoints and orientation.
	src, dst []int32
	up       []bool // channel travels toward the root (up direction)
	level    []int32

	dist [][]int16 // all-pairs minimal distances
	// udDist[phase][v*nodes+d]: minimal legal up*/down* distance from v
	// to d, where phase 0 may still go up and phase 1 is down-only.
	udDist [2][]int16
}

// NewIrregular builds a random connected graph of n switches with
// approximately extraLinks links beyond the spanning tree (degree grows with
// it), deterministically from seed. n must be at least 2.
func NewIrregular(n, extraLinks int, seed uint64) (*Irregular, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: irregular network needs >= 2 nodes, got %d", n)
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("topology: irregular network of %d nodes too large (all-pairs tables)", n)
	}
	if extraLinks < 0 {
		return nil, fmt.Errorf("topology: negative extra links")
	}
	r := rng.New(seed ^ 0x1267a97)
	g := &Irregular{nodes: n, out: make([][]ChannelID, n)}
	linked := make(map[[2]int]bool)
	addLink := func(a, b int) {
		ca := ChannelID(len(g.src))
		g.src = append(g.src, int32(a))
		g.dst = append(g.dst, int32(b))
		g.out[a] = append(g.out[a], ca)
		cb := ChannelID(len(g.src))
		g.src = append(g.src, int32(b))
		g.dst = append(g.dst, int32(a))
		g.out[b] = append(g.out[b], cb)
		key := [2]int{min(a, b), max(a, b)}
		linked[key] = true
	}
	// Random spanning tree: attach each node to a random earlier node
	// (random permutation for shape diversity).
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		addLink(perm[i], perm[r.Intn(i)])
	}
	// Extra links between random unconnected pairs.
	for added, attempts := 0, 0; added < extraLinks && attempts < 50*extraLinks+100; attempts++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || linked[[2]int{min(a, b), max(a, b)}] {
			continue
		}
		addLink(a, b)
		added++
	}
	g.orient()
	g.computeDistances()
	return g, nil
}

// MustNewIrregular is NewIrregular but panics on error.
func MustNewIrregular(n, extraLinks int, seed uint64) *Irregular {
	g, err := NewIrregular(n, extraLinks, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// orient assigns BFS levels from node 0 and marks each channel's direction:
// a channel is "up" when it moves to a lower level, or to a lower node id
// within the same level. The up-channel relation is acyclic by construction.
func (g *Irregular) orient() {
	g.level = make([]int32, g.nodes)
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range g.out[v] {
			w := int(g.dst[c])
			if g.level[w] == -1 {
				g.level[w] = g.level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	g.up = make([]bool, len(g.src))
	for c := range g.src {
		a, b := int(g.src[c]), int(g.dst[c])
		g.up[c] = g.level[b] < g.level[a] ||
			(g.level[b] == g.level[a] && b < a)
	}
}

// computeDistances fills the all-pairs minimal and up*/down* tables.
func (g *Irregular) computeDistances() {
	n := g.nodes
	g.dist = make([][]int16, n)
	for s := 0; s < n; s++ {
		d := make([]int16, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, c := range g.out[v] {
				w := int(g.dst[c])
				if d[w] == -1 {
					d[w] = d[v] + 1
					queue = append(queue, w)
				}
			}
		}
		g.dist[s] = d
	}
	// Legal up*/down* distances, per destination, over the product graph
	// (node, phase). Phase 0: up still allowed; phase 1: down-only.
	// BFS backward from (d, either phase at arrival).
	const inf = int16(1 << 14)
	for phase := 0; phase < 2; phase++ {
		g.udDist[phase] = make([]int16, n*n)
		for i := range g.udDist[phase] {
			g.udDist[phase][i] = inf
		}
	}
	for d := 0; d < n; d++ {
		g.udDist[0][d*n+d] = 0
		g.udDist[1][d*n+d] = 0
		// Forward BFS over states (v, phase) using transitions:
		// (v,0) -up-> (u,0); (v,0) -down-> (u,1); (v,1) -down-> (u,1).
		// We need shortest path to d, so run backward: predecessor of
		// (u,0) via up channel v->u is (v,0); predecessor of (u,1) via
		// down channel v->u is (v,0) or (v,1).
		type st struct {
			v     int
			phase int
		}
		queue := []st{{d, 0}, {d, 1}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			cd := g.udDist[cur.phase][cur.v*n+d]
			// Find channels v -> cur.v and relax predecessors.
			for _, c := range g.out[cur.v] {
				// out channels of cur.v give its neighbors; the
				// reverse channel w -> cur.v has the opposite
				// orientation of c only if it's the paired id.
				rc := c ^ 1 // channels are created in pairs
				v := int(g.dst[c])
				if int(g.src[rc]) != v || int(g.dst[rc]) != cur.v {
					continue
				}
				if g.up[rc] {
					// up move: only legal from phase 0 to
					// phase 0; reaches cur state if
					// cur.phase == 0.
					if cur.phase == 0 && g.udDist[0][v*n+d] > cd+1 {
						g.udDist[0][v*n+d] = cd + 1
						queue = append(queue, st{v, 0})
					}
				} else {
					// down move: lands in phase 1; legal
					// from either phase.
					if cur.phase == 1 {
						for p := 0; p < 2; p++ {
							if g.udDist[p][v*n+d] > cd+1 {
								g.udDist[p][v*n+d] = cd + 1
								queue = append(queue, st{v, p})
							}
						}
					}
				}
			}
		}
		// A down-first arrival at d has phase 1; states (d,1) above
		// seed that. States unreachable stay inf (cannot happen in a
		// connected graph for phase 0 — up*/down* is connected).
	}
}

// Nodes implements Network.
func (g *Irregular) Nodes() int { return g.nodes }

// NumChannels implements Network (every id is a real channel).
func (g *Irregular) NumChannels() int { return len(g.src) }

// LinkCount implements Network.
func (g *Irregular) LinkCount() int { return len(g.src) }

// ChannelSrc implements Network.
func (g *Irregular) ChannelSrc(c ChannelID) int { return int(g.src[c]) }

// ChannelDst implements Network.
func (g *Irregular) ChannelDst(c ChannelID) int { return int(g.dst[c]) }

// ChannelExists implements Network.
func (g *Irregular) ChannelExists(c ChannelID) bool {
	return c >= 0 && int(c) < len(g.src)
}

// ChannelDim implements Network; irregular networks have no dimensions.
func (g *Irregular) ChannelDim(ChannelID) int { return 0 }

// ChannelString implements Network.
func (g *Irregular) ChannelString(c ChannelID) string {
	dir := "down"
	if g.up[c] {
		dir = "up"
	}
	return fmt.Sprintf("%d-(%s)->%d", g.src[c], dir, g.dst[c])
}

// RouteFlags implements Network: traversing a down channel sets bit 0,
// committing the message to the down phase of up*/down* routing.
func (g *Irregular) RouteFlags(c ChannelID) uint32 {
	if g.up[c] {
		return 0
	}
	return 1
}

// Up reports whether the channel points toward the spanning-tree root.
func (g *Irregular) Up(c ChannelID) bool { return g.up[c] }

// Level returns a node's BFS level from the root.
func (g *Irregular) Level(node int) int { return int(g.level[node]) }

// Out returns the channels leaving node. Callers must not mutate it.
func (g *Irregular) Out(node int) []ChannelID { return g.out[node] }

// OutChannels implements Network.
func (g *Irregular) OutChannels(node int, buf []ChannelID) []ChannelID {
	return append(buf, g.out[node]...)
}

// Distance implements Network.
func (g *Irregular) Distance(src, dst int) int { return int(g.dist[src][dst]) }

// UpDownDistance returns the minimal legal up*/down* route length from src
// to dst for a message in the given phase (false: may still go up; true:
// down-only). It returns -1 if no legal route exists (possible in the down
// phase; never for phase up in a connected network).
func (g *Irregular) UpDownDistance(src, dst int, downPhase bool) int {
	p := 0
	if downPhase {
		p = 1
	}
	d := g.udDist[p][src*g.nodes+dst]
	if d >= 1<<14 {
		return -1
	}
	return int(d)
}

// AvgDistance implements Network.
func (g *Irregular) AvgDistance() float64 {
	sum, pairs := 0, 0
	for s := 0; s < g.nodes; s++ {
		for d := 0; d < g.nodes; d++ {
			if s != d {
				sum += int(g.dist[s][d])
				pairs++
			}
		}
	}
	return float64(sum) / float64(pairs)
}

// CapacityPerNode implements Network.
func (g *Irregular) CapacityPerNode() float64 {
	return float64(g.LinkCount()) / (float64(g.nodes) * g.AvgDistance())
}

// String implements Network.
func (g *Irregular) String() string {
	return fmt.Sprintf("irregular %d-switch network (%d links)", g.nodes, len(g.src)/2)
}
