package cwg

// The message wait-for graph.
//
// In the CWG an owned VC's only out-arc leads to the next VC of its owner's
// chain, and only a blocked head has dashed arcs. So an elementary cycle
// enters each message at most once: at some owned VC, along the chain to the
// head, and out by a dashed arc to another message's VC. A CWG cycle is
// therefore a cycle of the message graph, one vertex per message holding a
// VC, plus one entry VC per arc. An arc m -> m' weighs the number of m's
// Wants entries that m' owns, duplicates counted, so the weighted Johnson
// count equals the VC graph's cycle count. A message that is not blocked, or
// wants a free VC, has an exit: its head reaches a sink of the CWG.
//
// A knot of the CWG is then a terminal, cyclic, exit-free component of the
// message graph. Its VCs are each member's chain from the earliest VC that
// any member wants up to its head; the VCs before that are reached by no
// member.
//
// Tarjan runs over the messages in snapshot order, with arcs in Wants order
// of first appearance. Within one message the VCs the VC graph's DFS has
// visited always form a suffix of its chain, so Tarjan on messages completes
// terminal components in the order that DFS enters them, and Analyze lists
// deadlocks in the VC graph's order (FuzzBuildEquivalence holds the two
// analyses equal, order included).

import (
	"slices"

	"flexsim/internal/message"
)

// MsgGraph is the message wait-for graph of a snapshot. Build rebuilds it in
// place, reusing every piece of storage, so a warm graph builds, and analyzes
// a knot-free snapshot, without heap allocations. It is not safe for
// concurrent use.
type MsgGraph struct {
	waitFor
	msgs []Msg
	vmsg []int32 // vertex -> index into msgs
	tbl  vcTable // owned VC -> vertex of its owner

	off           []int32 // per vertex, its first arc in arcBuf and wtBuf
	arcBuf, wtBuf []int32
	first         []int32 // Analyze: per member, the earliest position a member wants
}

// NewMsgGraph returns an empty message graph for snapshots over a VC id
// space of totalVCs ids (0..totalVCs-1); ids beyond it cost a table growth
// on first sight.
func NewMsgGraph(totalVCs int) *MsgGraph {
	g := &MsgGraph{}
	g.tbl.slot = make([]int32, max(totalVCs, 0))
	g.tbl.stamp = make([]uint64, max(totalVCs, 0))
	return g
}

// Build makes g the message graph of msgs and returns it. The graph, and
// every slice reachable from it or from its analyses, is valid until the
// next Build. Messages with no owned VCs are no vertex.
func (g *MsgGraph) Build(msgs []Msg) *MsgGraph {
	g.msgs = msgs
	g.vmsg = g.vmsg[:0]
	g.tbl.epoch++
	for mi := range msgs {
		if len(msgs[mi].Owned) == 0 {
			continue
		}
		v := int32(len(g.vmsg))
		g.vmsg = append(g.vmsg, int32(mi))
		for _, vc := range msgs[mi].Owned {
			g.tbl.assign(vc, v)
		}
	}
	n := len(g.vmsg)
	g.off = growI32(g.off, n+1)
	g.exit = growBool(g.exit, n)
	arcs, wts := g.arcBuf[:0], g.wtBuf[:0]
	for v, mi := range g.vmsg {
		m := &msgs[mi]
		start := len(arcs)
		g.off[v] = int32(start)
		exit := !m.Blocked
		if m.Blocked {
			for _, vc := range m.Wants {
				o, ok := g.tbl.lookup(vc)
				if !ok {
					exit = true
				} else if k := slices.Index(arcs[start:], o); k >= 0 {
					wts[start+k]++
				} else {
					arcs, wts = append(arcs, o), append(wts, 1)
				}
			}
		}
		g.exit[v] = exit
	}
	g.off[n] = int32(len(arcs))
	g.arcBuf, g.wtBuf = arcs, wts
	g.adj, g.wt = growLists(g.adj, n), growLists(g.wt, n)
	for v := 0; v < n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		g.adj[v], g.wt[v] = arcs[lo:hi:hi], wts[lo:hi:hi]
	}
	g.work = Work{}
	return g
}

// NumVertices returns the number of messages in the graph: those of the
// snapshot that hold a VC.
func (g *MsgGraph) NumVertices() int { return len(g.vmsg) }

// NumArcs returns the number of distinct arcs (a weighted arc counts once).
func (g *MsgGraph) NumArcs() int { return len(g.arcBuf) }

// Analyze finds all knots and classifies each deadlock: the Analysis that
// the VC graph of the same snapshot gives, field for field and in the same
// order. A pass's deadlocks outlive it (an event log keeps them), so their
// sets are carved out of two fresh allocations, sized by counting first.
func (g *MsgGraph) Analyze(opts Options) Analysis {
	var an Analysis
	for i := range g.msgs {
		if g.msgs[i].Blocked {
			an.BlockedMessages++
		}
	}
	knots := g.knots()
	if len(knots) == 0 {
		return an
	}
	sc := g.scratch()
	sc.inKnot = growI32(sc.inKnot, len(g.msgs))
	inKnot := sc.inKnot
	for i := range inKnot {
		inKnot[i] = -1
	}
	g.first = growI32(g.first, len(g.vmsg))
	for k, knot := range knots {
		for _, v := range knot {
			inKnot[g.vmsg[v]] = int32(k)
			g.first[v] = int32(len(g.msgs[g.vmsg[v]].Owned))
		}
	}
	// A knot's VCs are each member's chain from the earliest position any
	// member wants; a member wants only its own knot's VCs, the knot being
	// terminal and exit-free.
	nVCs, nIDs := 0, 0
	for _, knot := range knots {
		for _, v := range knot {
			for _, vc := range g.msgs[g.vmsg[v]].Wants {
				o, _ := g.tbl.lookup(vc)
				if p := int32(slices.Index(g.msgs[g.vmsg[o]].Owned, vc)); p < g.first[o] {
					g.first[o] = p
				}
			}
		}
		for _, v := range knot {
			n := len(g.msgs[g.vmsg[v]].Owned)
			nVCs += 2*n - int(g.first[v])
		}
		nIDs += len(knot)
	}
	sc.nDep = growI32(sc.nDep, len(knots))
	clear(sc.nDep)
	g.dependents(knots, nil)
	for _, n := range sc.nDep {
		nIDs += int(n)
	}

	vcs := make([]message.VC, 0, nVCs)
	ids := make([]message.ID, 0, nIDs)
	an.Deadlocks = make([]Deadlock, len(knots))
	for k, knot := range knots {
		d := &an.Deadlocks[k]
		start := len(vcs)
		for _, v := range knot {
			vcs = append(vcs, g.msgs[g.vmsg[v]].Owned[g.first[v]:]...)
		}
		d.KnotVCs = vcs[start:len(vcs):len(vcs)]
		start = len(vcs)
		for _, v := range knot {
			vcs = append(vcs, g.msgs[g.vmsg[v]].Owned...)
		}
		d.ResourceSet = vcs[start:len(vcs):len(vcs)]
		start = len(ids)
		for _, v := range knot {
			ids = append(ids, g.msgs[g.vmsg[v]].ID)
		}
		d.DeadlockSet = ids[start:len(ids):len(ids)]
		if n := int(sc.nDep[k]); n > 0 {
			d.Dependent = ids[len(ids) : len(ids) : len(ids)+n]
			ids = ids[:len(ids)+n]
		}
	}
	g.dependents(knots, an.Deadlocks)
	for k, knot := range knots {
		d := &an.Deadlocks[k]
		slices.Sort(d.KnotVCs)
		slices.Sort(d.DeadlockSet)
		slices.Sort(d.ResourceSet)
		slices.Sort(d.Dependent)
		d.countCycles(&g.waitFor, knot, opts)
	}
	return an
}

// dependents visits each knot's dependent messages: blocked, in no knot,
// and wanting a member's VC. With dls nil it counts them into the scratch's
// nDep; else it appends their ids to each deadlock's Dependent.
func (g *MsgGraph) dependents(knots [][]int32, dls []Deadlock) {
	sc := g.scratch()
	sc.lastDep = growI32(sc.lastDep, len(knots))
	for k := range sc.lastDep {
		sc.lastDep[k] = -1
	}
	for mi := range g.msgs {
		m := &g.msgs[mi]
		if !m.Blocked || sc.inKnot[mi] >= 0 {
			continue
		}
		for _, vc := range m.Wants {
			o, ok := g.tbl.lookup(vc)
			if !ok {
				continue
			}
			k := sc.inKnot[g.vmsg[o]]
			if k < 0 || sc.lastDep[k] == int32(mi) {
				continue
			}
			sc.lastDep[k] = int32(mi)
			if dls == nil {
				sc.nDep[k]++
			} else {
				dls[k].Dependent = append(dls[k].Dependent, m.ID)
			}
		}
	}
}

// CountCycles counts the elementary cycles of the snapshot's CWG, the
// paper's cycle census, as weighted circuits of the message graph under
// opts' MaxCycles and MaxWork caps (MaxWork caps message-graph arc visits);
// capped reports that a cap stopped the count. opts.CountKnotCycles does not
// apply.
func (g *MsgGraph) CountCycles(opts Options) (n int, capped bool) {
	return newCounter(opts, g.scratch()).countAll(&g.waitFor)
}

// Doomed appends to dst, in snapshot order, the ids of the messages that
// reach no exit: every path from one ends in a knot, so it cannot advance
// until recovery (the local deadlock of Stramaglia, Keiren and Zantema).
// They are the deadlock sets plus every message whose every escape leads
// into them, directly or through other doomed messages.
func (g *MsgGraph) Doomed(dst []message.ID) []message.ID {
	esc := make([]bool, len(g.adj))
	for changed := true; changed; {
		changed = false
		for v, arcs := range g.adj {
			if esc[v] {
				continue
			}
			e := g.exit[v]
			for _, w := range arcs {
				e = e || esc[w]
			}
			if e {
				esc[v], changed = true, true
			}
		}
	}
	for v, e := range esc {
		if !e {
			dst = append(dst, g.msgs[g.vmsg[v]].ID)
		}
	}
	return dst
}
