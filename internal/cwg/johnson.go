package cwg

// Elementary-cycle enumeration (Johnson's algorithm, SIAM J. Comput. 1975)
// with work and count caps.
//
// The paper's cycle census ("number of resource dependency cycles") and the
// knot cycle density both require counting unique elementary cycles. The
// count grows combinatorially near saturation (the paper observes "hundreds
// of thousands" of cycles), so enumeration is bounded: MaxCycles caps the
// count, MaxWork caps edge traversals, and results report whether a cap was
// hit. Cycles only exist inside strongly connected components, so the
// enumerator first condenses the graph and then runs Johnson per nontrivial
// SCC, which keeps the common no-deadlock case at O(V+E).
//
// Arcs carry weights: a circuit counts the product of its arcs' weights,
// clamped at MaxCycles. On the VC graph every weight is 1, so a circuit
// counts once; on the message graph an arc m -> m' weighs the number of m's
// wanted VCs that m' owns, and each choice of entry VCs along a message
// circuit is one elementary cycle of the VC graph (msggraph.go).
//
// All working storage — the global-to-local vertex index (epoch-stamped
// dense array), the per-SCC adjacency lists, and Johnson's blocked set and
// block map — lives in the graph's shared scratch and is reused across
// invocations.

// counter carries the enumeration state and caps.
type counter struct {
	maxCycles int
	maxWork   int
	cycles    int
	work      int
	capped    bool
	sc        *scratch
}

func newCounter(opts Options, sc *scratch) *counter {
	c := &counter{maxCycles: opts.MaxCycles, maxWork: opts.MaxWork, sc: sc}
	if c.maxCycles <= 0 {
		c.maxCycles = DefaultMaxCycles
	}
	if c.maxWork <= 0 {
		c.maxWork = DefaultMaxWork
	}
	return c
}

// countAll counts elementary cycles in the whole graph.
func (c *counter) countAll(g *waitFor) (int, bool) {
	comp, ncomp := g.tarjan()
	sc := c.sc
	// Only components with an internal edge can contain cycles; bucket
	// their members (in ascending vertex order) into one flat slice.
	sc.compCnt = growI32(sc.compCnt, ncomp)
	hasEdge, cnt := sc.hasEdge, sc.compCnt
	clear(cnt)
	n := len(g.adj)
	sc.compOff = growI32(sc.compOff, ncomp+1)
	sc.compMem = growI32(sc.compMem, n)
	off, mem := sc.compOff, sc.compMem
	for u := 0; u < n; u++ {
		if hasEdge[comp[u]] {
			cnt[comp[u]]++
		}
	}
	run := int32(0)
	for i := 0; i < ncomp; i++ {
		off[i] = run
		run += cnt[i]
		cnt[i] = off[i]
	}
	off[ncomp] = run
	for u := 0; u < n; u++ {
		if cu := comp[u]; hasEdge[cu] {
			mem[cnt[cu]] = int32(u)
			cnt[cu]++
		}
	}
	for i := 0; i < ncomp; i++ {
		m := mem[off[i]:off[i+1]]
		if len(m) == 0 {
			continue
		}
		c.countSCC(g, m)
		if c.capped {
			break
		}
	}
	g.work.JohnsonEdges += int64(c.work)
	return c.cycles, c.capped
}

// countInduced counts elementary cycles in the subgraph induced by the given
// vertex set, which must be sorted ascending (used for knot cycle density;
// a knot is a single SCC and FindKnots emits members in vertex order).
func (c *counter) countInduced(g *waitFor, mem []int32) (int, bool) {
	c.countSCC(g, mem)
	g.work.JohnsonEdges += int64(c.work)
	return c.cycles, c.capped
}

// countSCC runs Johnson's circuit enumeration on the subgraph induced by
// mem (which must all belong to one graph; cycles leaving mem are ignored).
func (c *counter) countSCC(g *waitFor, mem []int32) {
	n := len(mem)
	sc := c.sc
	sc.jStamp = growI64(sc.jStamp, len(g.adj))
	sc.jLocal = growI32(sc.jLocal, len(g.adj))
	if sc.jEpoch == 0 {
		// First use of a (possibly recycled) stamp array: force-clear.
		for i := range sc.jStamp {
			sc.jStamp[i] = -1
		}
	}
	sc.jEpoch++
	for i, v := range mem {
		sc.jLocal[v] = int32(i)
		sc.jStamp[v] = sc.jEpoch
	}
	sc.jAdj = growLists(sc.jAdj, n)
	sc.jWt = growLists(sc.jWt, n)
	for i, v := range mem {
		lst, wl := sc.jAdj[i][:0], sc.jWt[i][:0]
		for k, w := range g.adj[v] {
			if sc.jStamp[w] == sc.jEpoch {
				lst = append(lst, sc.jLocal[w])
				wl = append(wl, int32(g.weight(v, k)))
			}
		}
		sc.jAdj[i], sc.jWt[i] = lst, wl
	}
	sc.jBlocked = growBool(sc.jBlocked, n)
	sc.jBlockMap = growLists(sc.jBlockMap, n)
	for i := 0; i < n; i++ {
		sc.jBlocked[i] = false
		sc.jBlockMap[i] = sc.jBlockMap[i][:0]
	}
	j := &johnson{adj: sc.jAdj[:n], wt: sc.jWt[:n], c: *c,
		blocked:  sc.jBlocked,
		blockMap: sc.jBlockMap,
	}
	for s := 0; s < n && !j.c.capped; s++ {
		j.s = int32(s)
		for i := s; i < n; i++ {
			j.blocked[i] = false
			j.blockMap[i] = j.blockMap[i][:0]
		}
		j.circuit(int32(s), 1)
	}
	// Persist block-map capacity grown during enumeration.
	sc.jBlockMap = j.blockMap
	*c = j.c
}

// johnson is one enumeration's state. It holds the counter by value, copied
// back when the enumeration ends: a pointer kept here would make the counter
// escape to the heap, since circuit recurses.
type johnson struct {
	adj      [][]int32
	wt       [][]int32 // adj's weights
	c        counter
	s        int32
	blocked  []bool
	blockMap [][]int32
}

// circuit explores elementary paths from v back to j.s using only vertices
// with local index >= j.s, counting each closed circuit once, times the
// product of its weights; prod is the product along the path to v.
func (j *johnson) circuit(v int32, prod int) bool {
	found := false
	j.blocked[v] = true
	for k, w := range j.adj[v] {
		if w < j.s {
			continue
		}
		j.c.work++
		if j.c.work > j.c.maxWork {
			j.c.capped = true
			return found
		}
		p := prod
		if wt := int(j.wt[v][k]); wt != 1 {
			// Clamped: a product at the cap caps the count anyway.
			p = j.c.maxCycles
			if prod <= j.c.maxCycles/wt {
				p = prod * wt
			}
		}
		if w == j.s {
			j.c.cycles += p
			if j.c.cycles >= j.c.maxCycles {
				j.c.cycles = j.c.maxCycles
				j.c.capped = true
				return found
			}
			found = true
		} else if !j.blocked[w] {
			if j.circuit(w, p) {
				found = true
			}
			if j.c.capped {
				return found
			}
		}
	}
	if found {
		j.unblock(v)
	} else {
		for _, w := range j.adj[v] {
			if w < j.s {
				continue
			}
			j.blockMap[w] = appendUnique(j.blockMap[w], v)
		}
	}
	return found
}

func (j *johnson) unblock(v int32) {
	j.blocked[v] = false
	for _, w := range j.blockMap[v] {
		if j.blocked[w] {
			j.unblock(w)
		}
	}
	j.blockMap[v] = j.blockMap[v][:0]
}

func appendUnique(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
