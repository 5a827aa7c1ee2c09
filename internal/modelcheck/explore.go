package modelcheck

// Bounded-exhaustive exploration of the abstract transition system, plus
// the two dynamic programs the verdicts need:
//
//   - live:  the backward liveness DP. Bit m of a state's live mask is set
//     iff some state reachable from it (itself included) has an outgoing
//     advance move (VC acquisition or ejection) by message m. Its
//     complement over blocked messages is the ground-truth stuck set.
//   - age:   the forward blocked-age DP. age[m] is the maximum, over all
//     explored paths reaching the state, of the number of consecutive
//     trailing moves during which m was continuously blocked — the
//     interleaving analog of the engine's (now - BlockedSince) that the
//     timeout heuristic thresholds.
//
// Every move strictly increases total progress (flit positions advance or
// the owned chain grows), so the transition system is a DAG; both DPs run
// over a DFS post-order. A back edge is therefore a checker bug and is
// reported as an error, never silently tolerated.

import (
	"fmt"

	"flexsim/internal/message"
)

// edge is one transition between canonical states.
type edge struct {
	to int32
	// mover is the moving message's index in the SOURCE state's canonical
	// order; perm maps source indices to target indices (canonicalization
	// may reorder messages).
	mover   int8
	advance bool
	perm    [MaxMessages]int8
}

// stateInfo is the per-state record of the explored graph.
type stateInfo struct {
	key      string
	edges    []edge
	expanded bool // successors generated (false only when truncated)
	complete bool // whole reachable subgraph expanded
	initial  bool
	blocked  uint8 // blocked-message mask (allocation-phase view)
	live     uint8 // liveness DP result
	age      [MaxMessages]int16
}

// explorer owns one configuration's explored graph.
type explorer struct {
	sy        *system
	maxStates int

	states    []stateInfo
	index     map[string]int32
	truncated bool
	numEdges  int

	owners  []int8
	wantBuf []message.VC
	post    []int32 // DFS post-order (children before parents)
}

func newExplorer(sy *system, maxStates int) *explorer {
	return &explorer{
		sy:        sy,
		maxStates: maxStates,
		index:     make(map[string]int32),
		owners:    make([]int8, sy.net.TotalVCs()),
	}
}

// intern returns the index of key, creating its record on first sight.
func (e *explorer) intern(key string) int32 {
	if idx, ok := e.index[key]; ok {
		return idx
	}
	idx := int32(len(e.states))
	e.states = append(e.states, stateInfo{key: key})
	e.index[key] = idx
	return idx
}

// succ is one generated successor before interning.
type succ struct {
	key     string
	mover   int8
	advance bool
	perm    [MaxMessages]int8
}

// successors enumerates every enabled move of s: injection starts, source
// flit streaming, buffered flit advances, every free candidate VC a header
// could be allocated, and destination ejections.
func (e *explorer) successors(s *state) []succ {
	sy := e.sy
	s.owners(e.owners)
	var out []succ

	emit := func(ns state, mover int, advance bool) {
		for mi := range ns.msgs {
			m := &ns.msgs[mi]
			for len(m.path) > 0 && m.srcRem == 0 && m.occ[0] == 0 {
				// Tail fully departed the leading VC: eager release,
				// exactly the engine's applyAndRelease normal form.
				m.path = m.path[1:]
				m.occ = m.occ[1:]
			}
		}
		key, perm := ns.canonicalize()
		out = append(out, succ{key: key, mover: int8(mover), advance: advance, perm: perm})
	}
	clone := func() state {
		ns := state{msgs: make([]msgState, len(s.msgs))}
		for i := range s.msgs {
			ns.msgs[i] = s.msgs[i].clone()
		}
		return ns
	}

	for mi := range s.msgs {
		m := &s.msgs[mi]
		if m.done(sy.cfg.MsgLen) {
			continue
		}
		if m.queued() {
			// Injection start: the queue head acquires a free injection VC.
			if m.qpos == 0 && e.owners[sy.net.InjVC(int(m.src))] < 0 {
				ns := clone()
				nm := &ns.msgs[mi]
				nm.path = []message.VC{sy.net.InjVC(int(m.src))}
				nm.occ = []int8{0}
				nm.qpos = -1
				for mj := range ns.msgs {
					if mj != mi && ns.msgs[mj].qpos > 0 && ns.msgs[mj].src == m.src {
						ns.msgs[mj].qpos--
					}
				}
				emit(ns, mi, false)
			}
			continue
		}
		last := len(m.path) - 1
		// Source flit streaming into the injection buffer.
		if m.srcRem > 0 && sy.net.IsInjection(m.path[0]) && int(m.occ[0]) < sy.cfg.BufferDepth {
			ns := clone()
			ns.msgs[mi].occ[0]++
			ns.msgs[mi].srcRem--
			emit(ns, mi, false)
		}
		// Buffered flit advances along the owned chain.
		for i := 0; i < last; i++ {
			if m.occ[i] > 0 && int(m.occ[i+1]) < sy.cfg.BufferDepth {
				ns := clone()
				nm := &ns.msgs[mi]
				nm.occ[i]--
				nm.occ[i+1]++
				if i+1 == last && m.occ[last] == 0 && m.consumed == 0 {
					// The header just traversed its newest channel:
					// fold in the route flags (dateline crossings).
					nm.crossed |= uint8(sy.topo.RouteFlags(sy.net.VCChannel(m.path[last])))
				}
				emit(ns, mi, false)
			}
		}
		if sy.atDst(m) {
			// Ejection consumes one flit at the destination.
			if m.occ[last] > 0 {
				ns := clone()
				ns.msgs[mi].occ[last]--
				ns.msgs[mi].consumed++
				emit(ns, mi, true)
			}
			continue
		}
		// Header allocation: one branch per FREE wanted VC — the
		// nondeterminism the real engine resolves by candidate order.
		_, wants := sy.blockedWants(m, e.owners, e.wantBuf)
		for _, vc := range wants {
			if e.owners[vc] >= 0 {
				continue
			}
			ns := clone()
			nm := &ns.msgs[mi]
			nm.path = append(nm.path, vc)
			nm.occ = append(nm.occ, 0)
			emit(ns, mi, true)
		}
	}
	return out
}

// expand generates and interns idx's successors and its blocked mask.
func (e *explorer) expand(idx int32) {
	s := decodeState(e.states[idx].key, e.sy.cfg.Messages)
	succs := e.successors(&s)
	s.owners(e.owners)
	st := &e.states[idx]
	st.blocked = e.sy.blockedMask(&s, e.owners, e.wantBuf)
	st.expanded = true
	st.edges = make([]edge, 0, len(succs))
	for _, sc := range succs {
		to := e.intern(sc.key) // may grow e.states; re-take the pointer
		st = &e.states[idx]
		st.edges = append(st.edges, edge{to: to, mover: sc.mover, advance: sc.advance, perm: sc.perm})
	}
	e.numEdges += len(succs)
}

// explore runs the full pipeline from the given canonical root states:
// reachability (bounded by maxStates expansions), DFS post-order with
// back-edge detection, then the liveness and blocked-age DPs.
func (e *explorer) explore(roots []string) error {
	e.wantBuf = make([]message.VC, 0, 8)
	for _, key := range roots {
		idx := e.intern(key)
		e.states[idx].initial = true
	}
	// Reachability, depth-first.
	work := make([]int32, 0, len(roots))
	for _, key := range roots {
		work = append(work, e.index[key])
	}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		if e.states[idx].expanded {
			continue
		}
		if len(e.states) >= e.maxStates {
			e.truncated = true
			continue // left unexpanded: a frontier sink, marked incomplete
		}
		e.expand(idx)
		for _, ed := range e.states[idx].edges {
			if !e.states[ed.to].expanded {
				work = append(work, ed.to)
			}
		}
	}
	if err := e.postorder(); err != nil {
		return err
	}
	e.computeLive()
	e.computeAges()
	return nil
}

// postorder computes a DFS post-order over the explored graph, erroring on
// any back edge (the transition system must be a DAG).
func (e *explorer) postorder() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(e.states))
	e.post = e.post[:0]
	type frame struct {
		idx int32
		ei  int
	}
	var stack []frame
	for root := range e.states {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{idx: int32(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			st := &e.states[f.idx]
			if f.ei < len(st.edges) {
				to := st.edges[f.ei].to
				f.ei++
				switch color[to] {
				case white:
					color[to] = gray
					stack = append(stack, frame{idx: to})
				case gray:
					return fmt.Errorf("modelcheck: %s: transition system has a cycle (progress-measure bug)",
						e.sy.cfg.Name())
				}
				continue
			}
			color[f.idx] = black
			e.post = append(e.post, f.idx)
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// computeLive runs the backward liveness DP in post-order (children first)
// and the completeness flag alongside it. Truncated frontier states have no
// edges: their live mask is empty (an under-approximation, which keeps
// "live" a DEFINITE verdict — soundness refutations remain valid under
// truncation) and they are marked incomplete so completeness claims are
// never made from them.
func (e *explorer) computeLive() {
	nm := e.sy.cfg.Messages
	for _, idx := range e.post {
		st := &e.states[idx]
		var live uint8
		complete := st.expanded
		for i := range st.edges {
			ed := &st.edges[i]
			if ed.advance {
				live |= 1 << uint(ed.mover)
			}
			tl := e.states[ed.to].live
			for m := 0; m < nm; m++ {
				if tl&(1<<uint(ed.perm[m])) != 0 {
					live |= 1 << uint(m)
				}
			}
			if !e.states[ed.to].complete {
				complete = false
			}
		}
		st.live = live
		st.complete = complete
	}
}

// computeAges runs the forward blocked-age DP in reverse post-order
// (parents first): a move extends the trailing blocked streak of every
// message blocked on both sides of it and resets everyone else's.
func (e *explorer) computeAges() {
	nm := e.sy.cfg.Messages
	for i := len(e.post) - 1; i >= 0; i-- {
		st := &e.states[e.post[i]]
		for j := range st.edges {
			ed := &st.edges[j]
			tgt := &e.states[ed.to]
			for m := 0; m < nm; m++ {
				tm := ed.perm[m]
				if tgt.blocked&(1<<uint(tm)) == 0 {
					continue
				}
				var streak int16 = 1
				if st.blocked&(1<<uint(m)) != 0 {
					streak = st.age[m] + 1
				}
				if streak > tgt.age[tm] {
					tgt.age[tm] = streak
				}
			}
		}
	}
}
