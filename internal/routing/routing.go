// Package routing implements the routing relations studied in the paper:
// static dimension-order routing (DOR) and minimal true fully adaptive
// routing (TFAR) with unrestricted virtual-channel use — under which
// deadlocks are possible and are the object of characterization — plus two
// deadlock-avoidance baselines (dateline DOR and Duato-style adaptive
// routing with escape channels) used as never-deadlock references on
// fault-free networks, and a nonminimal misrouting variant (the paper's
// future-work item). Whether a relation can deadlock is a verdict for a
// concrete network, not a property of the algorithm: internal/network's
// TestRoutingFreedom checks the dependency graph of the relation the engine
// runs, and TestDegradedFreedom shows the avoidance baselines losing their
// verdict once a channel fails.
//
// A routing relation maps the header's current router, destination and VC
// state to an ordered list of candidate virtual channels. Order expresses
// the channel-selection policy; the paper's default prefers continuing in
// the current dimension over turning. The network allocates the first free
// candidate; if all candidates are owned, the message blocks and the
// candidate set becomes the dashed arcs of the channel wait-for graph.
package routing

import (
	"fmt"
	"sort"

	"flexsim/internal/topology"
)

// Candidate is one (physical channel, virtual channel index) routing option.
type Candidate struct {
	Ch topology.ChannelID
	VC int
}

// Request carries the header's routing context for one allocation attempt.
type Request struct {
	Topo topology.Network
	// Node is the router where the header resides (the upstream node of
	// the channels being requested).
	Node int
	// Dst is the message's destination node.
	Dst int
	// VCs is the number of virtual channels per physical channel.
	VCs int
	// CurDim is the dimension of the channel the header last traversed,
	// or -1 if the header is still in the source's injection VC. It feeds
	// the stay-in-dimension selection preference.
	CurDim int
	// Crossed has bit d set once the header has crossed dimension d's
	// dateline; escape-channel algorithms derive VC classes from it.
	Crossed uint32
	// Deroutes is the number of nonminimal hops the message has already
	// taken; misrouting relations stop offering deroutes once their
	// budget is spent.
	Deroutes int
	// PrevCh is the channel the header last traversed (topology.None at
	// the source); misrouting relations use it to avoid immediately
	// undoing the previous hop.
	PrevCh topology.ChannelID
}

// Algorithm is a routing relation.
type Algorithm interface {
	// Name identifies the algorithm ("dor", "tfar", ...).
	Name() string
	// Candidates appends the ordered candidate set for req to buf and
	// returns it. An empty result means the header is at its destination
	// (the network ejects instead of routing) or the request is
	// malformed. Implementations must not retain req: the network reuses
	// one Request per worker across calls, so the pointer it hands to this
	// interface method costs no allocation.
	Candidates(req *Request, buf []Candidate) []Candidate
	// MinVCs returns the smallest VC count the algorithm is defined for.
	MinVCs() int
}

// dirOf converts a signed minimal offset to a direction.
func dirOf(offset int) topology.Direction {
	if offset < 0 {
		return topology.Minus
	}
	return topology.Plus
}

// torus extracts the request's *topology.Torus; torus/mesh relations call it
// at the top of Candidates. network.New validates algorithm/topology
// pairings up front (requireTorus), so a mismatch here is a programming
// error.
func torus(req *Request) *topology.Torus {
	t, ok := req.Topo.(*topology.Torus)
	if !ok {
		panic(fmt.Sprintf("routing: torus relation invoked on %s", req.Topo))
	}
	return t
}

// requireTorus is the shared TopologyValidator body for torus/mesh-only
// relations.
func requireTorus(t topology.Network, algo string) (*topology.Torus, error) {
	tor, ok := t.(*topology.Torus)
	if !ok {
		return nil, fmt.Errorf("routing: %s is defined on k-ary n-cubes/meshes, not %s", algo, t)
	}
	return tor, nil
}

// torusOnly provides ValidateTopo for relations defined on any k-ary
// n-cube or mesh; embed it and shadow where tighter checks are needed.
type torusOnly struct{}

// ValidateTopo implements TopologyValidator.
func (torusOnly) ValidateTopo(t topology.Network) error {
	_, err := requireTorus(t, "this relation")
	return err
}

// DOR is static (deterministic) dimension-order routing: correct one
// dimension completely before the next, lowest dimension first, using the
// minimal direction within each dimension. All VCs of the selected channel
// are offered in index order (the paper's "unrestricted use" of VCs), so on
// a torus deadlock remains possible with any VC count. On a mesh its channel
// dependency graph is acyclic with one VC (internal/network's
// TestRoutingFreedom).
type DOR struct{ torusOnly }

// Name implements Algorithm.
func (DOR) Name() string { return "dor" }

// MinVCs implements Algorithm.
func (DOR) MinVCs() int { return 1 }

// Candidates implements Algorithm.
func (DOR) Candidates(req *Request, buf []Candidate) []Candidate {
	t := torus(req)
	for dim := 0; dim < t.N(); dim++ {
		off := t.Offset(req.Node, req.Dst, dim)
		if off == 0 {
			continue
		}
		ch := t.Channel(req.Node, dim, dirOf(off))
		for v := 0; v < req.VCs; v++ {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
		return buf
	}
	return buf
}

// TFAR is minimal true fully adaptive routing: every dimension with a
// nonzero minimal offset is a legal next hop, and every VC of every such
// channel may be used without restriction. Candidate order implements the
// paper's default channel-selection policy: channels in the current
// dimension first, then the remaining productive dimensions in ascending
// order; VCs in index order within a channel. Set PreferTurn to invert the
// dimension preference (an ablation knob).
type TFAR struct {
	torusOnly
	PreferTurn bool
}

// Name implements Algorithm.
func (a TFAR) Name() string {
	if a.PreferTurn {
		return "tfar-turnfirst"
	}
	return "tfar"
}

// MinVCs implements Algorithm.
func (TFAR) MinVCs() int { return 1 }

// Candidates implements Algorithm.
func (a TFAR) Candidates(req *Request, buf []Candidate) []Candidate {
	t := torus(req)
	appendDim := func(dim int) {
		off := t.Offset(req.Node, req.Dst, dim)
		if off == 0 {
			return
		}
		ch := t.Channel(req.Node, dim, dirOf(off))
		for v := 0; v < req.VCs; v++ {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
	}
	cur := req.CurDim
	if a.PreferTurn {
		// The current dimension goes last; the others ascend.
		for dim := 0; dim < t.N(); dim++ {
			if dim != req.CurDim {
				appendDim(dim)
			}
		}
		if req.CurDim >= 0 {
			appendDim(req.CurDim)
		}
		return buf
	}
	if cur >= 0 {
		appendDim(cur)
	}
	for dim := 0; dim < t.N(); dim++ {
		if dim != cur {
			appendDim(dim)
		}
	}
	return buf
}

// DatelineDOR is dimension-order routing on tori made deadlock-free by the
// classic dateline (VC class) scheme: each dimension's ring is split by a
// dateline at the wraparound link; messages use even-indexed VCs before
// crossing it and odd-indexed VCs after. On a fault-free torus the resulting
// channel dependency graph is acyclic, so no knot can form
// (internal/network's TestRoutingFreedom); after a channel fails, the
// fallback to Surviving can close a cycle (TestDegradedFreedom). Requires at
// least 2 VCs.
type DatelineDOR struct{ torusOnly }

// Name implements Algorithm.
func (DatelineDOR) Name() string { return "dateline-dor" }

// MinVCs implements Algorithm.
func (DatelineDOR) MinVCs() int { return 2 }

// Candidates implements Algorithm.
func (DatelineDOR) Candidates(req *Request, buf []Candidate) []Candidate {
	t := torus(req)
	for dim := 0; dim < t.N(); dim++ {
		off := t.Offset(req.Node, req.Dst, dim)
		if off == 0 {
			continue
		}
		ch := t.Channel(req.Node, dim, dirOf(off))
		class := 0
		if req.Crossed&(1<<uint(dim)) != 0 {
			class = 1
		}
		for v := class; v < req.VCs; v += 2 {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
		return buf
	}
	return buf
}

// DuatoFAR is minimal fully adaptive routing made deadlock-free by Duato's
// protocol: VCs 2..VCs-1 are unrestricted adaptive channels on every
// productive dimension, while VCs 0 and 1 form a dateline-DOR escape
// subnetwork that is always offered as a last resort. On a fault-free torus
// every blocked message therefore has an escape path whose extended channel
// dependency graph is acyclic, so cycles among adaptive channels are
// harmless (the paper's "cyclic non-deadlock" scenario, Fig. 4; Duato's
// condition is checked by internal/network's TestRoutingFreedom, and fails
// after a channel fails: TestDegradedFreedom). Requires at least 3 VCs.
type DuatoFAR struct{ torusOnly }

// Name implements Algorithm.
func (DuatoFAR) Name() string { return "duato-far" }

// MinVCs implements Algorithm.
func (DuatoFAR) MinVCs() int { return 3 }

// Candidates implements Algorithm.
func (DuatoFAR) Candidates(req *Request, buf []Candidate) []Candidate {
	t := torus(req)
	// Adaptive classes first: current dimension, then ascending.
	appendAdaptive := func(dim int) {
		off := t.Offset(req.Node, req.Dst, dim)
		if off == 0 {
			return
		}
		ch := t.Channel(req.Node, dim, dirOf(off))
		for v := 2; v < req.VCs; v++ {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
	}
	if req.CurDim >= 0 {
		appendAdaptive(req.CurDim)
	}
	for dim := 0; dim < t.N(); dim++ {
		if dim != req.CurDim {
			appendAdaptive(dim)
		}
	}
	// Escape last: the DOR channel with the dateline class.
	for dim := 0; dim < t.N(); dim++ {
		off := t.Offset(req.Node, req.Dst, dim)
		if off == 0 {
			continue
		}
		ch := t.Channel(req.Node, dim, dirOf(off))
		class := 0
		if req.Crossed&(1<<uint(dim)) != 0 {
			class = 1
		}
		buf = append(buf, Candidate{Ch: ch, VC: class})
		break
	}
	return buf
}

// MisroutingFAR extends TFAR with nonminimal hops (the paper's future-work
// item): in addition to every minimal candidate, every other network channel
// at the router is offered as a low-priority derouting option, except the
// channel that would immediately undo the previous hop. Misrouting trades
// extra hops for fewer blocked messages; it is not livelock-free by itself,
// so MaxDeroutes bounds the nonminimal hops per message (the network tracks
// the count and passes it in Request.Deroutes). A zero MaxDeroutes behaves
// exactly like TFAR.
type MisroutingFAR struct {
	torusOnly
	MaxDeroutes int
}

// Name implements Algorithm.
func (MisroutingFAR) Name() string { return "misroute-far" }

// MinVCs implements Algorithm.
func (MisroutingFAR) MinVCs() int { return 1 }

// Candidates implements Algorithm.
func (a MisroutingFAR) Candidates(req *Request, buf []Candidate) []Candidate {
	start := len(buf)
	buf = TFAR{}.Candidates(req, buf)
	if req.Deroutes >= a.MaxDeroutes {
		return buf
	}
	t := torus(req)
	// Reversing the previous hop would bounce the worm; exclude it.
	var reverse topology.ChannelID = topology.None
	if req.PrevCh != topology.None && t.Bidirectional() {
		dim := t.ChannelDim(req.PrevCh)
		dir := topology.Plus
		if t.ChannelDir(req.PrevCh) == topology.Plus {
			dir = topology.Minus
		}
		reverse = t.Channel(req.Node, dim, dir)
	}
	minimal := buf[start:]
	for dim := 0; dim < t.N(); dim++ {
		for d := 0; d < t.Dirs(); d++ {
			ch := t.Channel(req.Node, dim, topology.Direction(d))
			if ch == reverse || !t.ChannelExists(ch) || containsChannel(minimal, ch) {
				continue
			}
			for v := 0; v < req.VCs; v++ {
				buf = append(buf, Candidate{Ch: ch, VC: v})
			}
		}
	}
	return buf
}

func containsChannel(cs []Candidate, ch topology.ChannelID) bool {
	for _, c := range cs {
		if c.Ch == ch {
			return true
		}
	}
	return false
}

// registry maps names to constructors for the CLI and experiment harness.
var registry = map[string]func() Algorithm{
	"dor":            func() Algorithm { return DOR{} },
	"tfar":           func() Algorithm { return TFAR{} },
	"tfar-turnfirst": func() Algorithm { return TFAR{PreferTurn: true} },
	"dateline-dor":   func() Algorithm { return DatelineDOR{} },
	"duato-far":      func() Algorithm { return DuatoFAR{} },
	"misroute-far":   func() Algorithm { return MisroutingFAR{MaxDeroutes: 4} },
	"negative-first": func() Algorithm { return NegativeFirst{} },
	"west-first":     func() Algorithm { return WestFirst{} },
	"min-adaptive":   func() Algorithm { return MinAdaptive{} },
	"updown":         func() Algorithm { return UpDown{} },
}

// ByName returns the algorithm registered under name.
func ByName(name string) (Algorithm, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("routing: unknown algorithm %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
