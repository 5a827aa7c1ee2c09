package cwg

// Reference implementations used for cross-validation in tests and by
// BenchmarkKnotTarjanVsReach: the textbook definitions of knots (per-vertex
// reachability) and elementary cycles (exhaustive DFS over simple paths).
// They are exponential/quadratic and only suitable for small graphs, but
// they implement the definitions literally, so agreement with the fast
// Tarjan/Johnson paths is strong evidence of correctness.

// NaiveKnots finds knots by the literal definition: a maximal set R such
// that the reachable set of every member equals R. It returns vertex-index
// sets, each sorted ascending, in ascending order of smallest member.
func (g *Graph) NaiveKnots() [][]int32 {
	n := len(g.verts)
	// reach[v] = set of vertices reachable from v (excluding v unless on
	// a cycle through v; include v itself for set comparison by closing
	// over successors only, then testing membership).
	reach := make([]map[int32]bool, n)
	var dfs func(v int32, seen map[int32]bool)
	dfs = func(v int32, seen map[int32]bool) {
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				dfs(w, seen)
			}
		}
	}
	for v := 0; v < n; v++ {
		seen := make(map[int32]bool)
		dfs(int32(v), seen)
		reach[v] = seen
	}
	// v belongs to a knot iff reach(v) is nonempty, v ∈ reach(v) (v lies
	// on a cycle), and for every w ∈ reach(v), reach(w) == reach(v).
	assigned := make([]bool, n)
	var knots [][]int32
	for v := 0; v < n; v++ {
		if assigned[v] || !reach[v][int32(v)] {
			continue
		}
		ok := true
		for w := range reach[v] {
			if !sameSet(reach[w], reach[v]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var knot []int32
		for w := range reach[v] {
			knot = append(knot, w)
			assigned[w] = true
		}
		for i := 1; i < len(knot); i++ {
			for j := i; j > 0 && knot[j] < knot[j-1]; j-- {
				knot[j], knot[j-1] = knot[j-1], knot[j]
			}
		}
		knots = append(knots, knot)
	}
	// Order by smallest member for stable comparison.
	for i := 1; i < len(knots); i++ {
		for j := i; j > 0 && knots[j][0] < knots[j-1][0]; j-- {
			knots[j], knots[j-1] = knots[j-1], knots[j]
		}
	}
	return knots
}

func sameSet(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// NaiveCycleCount counts elementary cycles by exhaustive DFS over simple
// paths, canonicalizing each cycle by its smallest vertex. Exponential;
// tests only.
func (g *Graph) NaiveCycleCount() int {
	n := len(g.verts)
	count := 0
	onPath := make([]bool, n)
	var dfs func(start, v int32)
	dfs = func(start, v int32) {
		onPath[v] = true
		for _, w := range g.adj[v] {
			if w == start {
				count++
			} else if w > start && !onPath[w] {
				dfs(start, w)
			}
		}
		onPath[v] = false
	}
	for s := 0; s < n; s++ {
		dfs(int32(s), int32(s))
	}
	return count
}
