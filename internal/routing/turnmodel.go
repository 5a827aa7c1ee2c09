package routing

// Turn-model routing algorithms (Glass & Ni, ISCA 1992 — the paper's
// reference [2]): partially adaptive, deadlock-free on meshes with a single
// virtual channel, achieved by prohibiting just enough turns to break every
// abstract cycle. They are avoidance baselines on meshes, complementing the
// dateline/Duato baselines on tori, and they are NOT deadlock-free on
// wraparound topologies — construction is rejected there via ValidateTopo.
// internal/network's TestRoutingFreedom checks both sides on fault-free
// networks: acyclic on meshes, a dependency cycle on a torus.

import (
	"fmt"

	"flexsim/internal/topology"
)

// TopologyValidator is implemented by routing algorithms that are only
// defined (or only deadlock-free) on particular topologies; the network
// layer rejects invalid combinations at construction.
type TopologyValidator interface {
	ValidateTopo(t topology.Network) error
}

// NegativeFirst is the negative-first turn model for k-ary n-meshes of any
// dimension: a message first makes all of its negative-direction hops (fully
// adaptively among them), and only then its positive-direction hops (again
// fully adaptively). No turn from a positive to a negative direction ever
// occurs, so on a fault-free mesh the channel dependency graph is acyclic
// with one VC (internal/network's TestRoutingFreedom).
type NegativeFirst struct{}

// Name implements Algorithm.
func (NegativeFirst) Name() string { return "negative-first" }

// MinVCs implements Algorithm.
func (NegativeFirst) MinVCs() int { return 1 }

// ValidateTopo implements TopologyValidator: meshes only.
func (NegativeFirst) ValidateTopo(t topology.Network) error {
	tor, err := requireTorus(t, "negative-first")
	if err != nil {
		return err
	}
	if tor.Wrap() {
		return fmt.Errorf("routing: negative-first is only deadlock-free on meshes, not %s", t)
	}
	return nil
}

// Candidates implements Algorithm.
func (NegativeFirst) Candidates(req *Request, buf []Candidate) []Candidate {
	t := torus(req)
	appendDir := func(want topology.Direction) {
		// Current dimension first, then ascending (the selection policy).
		appendOne := func(dim int) {
			off := t.Offset(req.Node, req.Dst, dim)
			if off == 0 || dirOf(off) != want {
				return
			}
			ch := t.Channel(req.Node, dim, want)
			for v := 0; v < req.VCs; v++ {
				buf = append(buf, Candidate{Ch: ch, VC: v})
			}
		}
		if req.CurDim >= 0 {
			appendOne(req.CurDim)
		}
		for dim := 0; dim < t.N(); dim++ {
			if dim != req.CurDim {
				appendOne(dim)
			}
		}
	}
	appendDir(topology.Minus)
	if len(buf) > 0 {
		return buf // negative hops remain: positive hops are forbidden
	}
	appendDir(topology.Plus)
	return buf
}

// WestFirst is the west-first turn model for 2-D meshes: a message first
// makes all of its westward (dim-0 Minus) hops, then routes fully adaptively
// among the remaining minimal directions (east, north, south). Its channel
// dependency graph on a fault-free 2-D mesh is acyclic with one VC
// (internal/network's TestRoutingFreedom).
type WestFirst struct{}

// Name implements Algorithm.
func (WestFirst) Name() string { return "west-first" }

// MinVCs implements Algorithm.
func (WestFirst) MinVCs() int { return 1 }

// ValidateTopo implements TopologyValidator: 2-D meshes only.
func (WestFirst) ValidateTopo(t topology.Network) error {
	tor, err := requireTorus(t, "west-first")
	if err != nil {
		return err
	}
	if tor.Wrap() {
		return fmt.Errorf("routing: west-first is only deadlock-free on meshes, not %s", t)
	}
	if tor.N() != 2 {
		return fmt.Errorf("routing: west-first is defined for 2-D meshes, not %d dimensions", tor.N())
	}
	return nil
}

// Candidates implements Algorithm.
func (WestFirst) Candidates(req *Request, buf []Candidate) []Candidate {
	t := torus(req)
	if off := t.Offset(req.Node, req.Dst, 0); off < 0 {
		// Westward hops remaining: west is the only legal direction.
		ch := t.Channel(req.Node, 0, topology.Minus)
		for v := 0; v < req.VCs; v++ {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
		return buf
	}
	// Fully adaptive among the remaining (east/north/south) minimal hops,
	// current dimension first.
	return TFAR{}.Candidates(req, buf)
}
