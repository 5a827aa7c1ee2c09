package routing

// Routing relations for irregular switch networks (the paper's future-work
// item), plus a topology-agnostic minimal adaptive relation.

import (
	"fmt"

	"flexsim/internal/topology"
)

// MinAdaptive is minimal fully adaptive routing on any topology: every
// channel that strictly reduces the distance to the destination is a
// candidate, with every VC unrestricted. On k-ary n-cubes it coincides with
// TFAR (modulo candidate ordering); on irregular networks it is the
// unrestricted relation whose deadlocks the recovery approach must handle.
type MinAdaptive struct{}

// Name implements Algorithm.
func (MinAdaptive) Name() string { return "min-adaptive" }

// MinVCs implements Algorithm.
func (MinAdaptive) MinVCs() int { return 1 }

// Candidates implements Algorithm.
func (MinAdaptive) Candidates(req *Request, buf []Candidate) []Candidate {
	t := req.Topo
	d := t.Distance(req.Node, req.Dst)
	var chans [8]topology.ChannelID
	for _, ch := range t.OutChannels(req.Node, chans[:0]) {
		if t.Distance(t.ChannelDst(ch), req.Dst) != d-1 {
			continue
		}
		for v := 0; v < req.VCs; v++ {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
	}
	return buf
}

// UpDown is Autonet-style up*/down* routing on irregular switch networks: a
// route climbs zero or more "up" channels (toward the spanning-tree root),
// then descends zero or more "down" channels, never turning down-to-up.
// Because up channels precede down channels in a fixed total order, the
// channel dependency graph of a fault-free network is acyclic and no knot
// can form with any VC count (internal/network's TestRoutingFreedom checks
// generated graphs). Among legal next hops, every channel on a shortest
// remaining legal route is offered (partially adaptive). The down-phase commitment is
// tracked in the message's route state (bit 0 of Request.Crossed, set by the
// network via topology.Irregular.RouteFlags).
type UpDown struct{}

// Name implements Algorithm.
func (UpDown) Name() string { return "updown" }

// MinVCs implements Algorithm.
func (UpDown) MinVCs() int { return 1 }

// ValidateTopo implements TopologyValidator: irregular networks only (the
// orientation tables live there).
func (UpDown) ValidateTopo(t topology.Network) error {
	if _, ok := t.(*topology.Irregular); !ok {
		return fmt.Errorf("routing: up*/down* is defined on irregular networks, not %s", t)
	}
	return nil
}

// Candidates implements Algorithm.
func (UpDown) Candidates(req *Request, buf []Candidate) []Candidate {
	g, ok := req.Topo.(*topology.Irregular)
	if !ok {
		panic(fmt.Sprintf("routing: up*/down* invoked on %s", req.Topo))
	}
	down := req.Crossed&1 != 0
	cur := g.UpDownDistance(req.Node, req.Dst, down)
	for _, ch := range g.Out(req.Node) {
		if down && g.Up(ch) {
			continue // down-to-up turns are prohibited
		}
		nextDown := down || !g.Up(ch)
		if g.UpDownDistance(g.ChannelDst(ch), req.Dst, nextDown) != cur-1 {
			continue
		}
		for v := 0; v < req.VCs; v++ {
			buf = append(buf, Candidate{Ch: ch, VC: v})
		}
	}
	return buf
}
