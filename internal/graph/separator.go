package graph

// Bisection is the result of splitting a graph into two halves and a
// vertex separator. Indices are local to the graph that was split,
// ascending within each part except that vertices the search did not
// reach follow the reached ones in Left and Right.
type Bisection struct {
	Left      []int
	Right     []int
	Separator []int
}

// VertexSeparator computes a small vertex separator splitting g into
// two roughly balanced parts. The method is the classic level-set
// bisection used by simple nested-dissection codes (George & Liu,
// "Computer Solution of Large Sparse Positive Definite Systems",
// 1981): BFS from a pseudo-peripheral vertex, cut at the median
// level, then take as the separator the frontier vertices of the left
// part that touch the right part.
//
// This is not METIS-quality, but it has the properties the paper's
// evaluation relies on: it produces balanced parts, separators of
// O(surface) size on mesh-like graphs, and an ordering that increases
// available level-scheduling parallelism while worsening iteration
// counts relative to RCM.
//
// s and t are the pseudo-peripheral iteration's searches, and the cut
// reads the levels of its last search. The parts are written to
// parts, of length at least g.N, as [Left | Right | Separator], and
// the returned slices alias it.
func (g *Graph) VertexSeparator(s, t *Search, parts []int) Bisection {
	n := g.N
	if n == 0 {
		return Bisection{}
	}
	// The iteration deepens the search at most n-1 times, so a cap of
	// n never binds.
	res := g.PseudoPeripheral(0, nil, n, s, t)
	level := res.Level

	// Cut at the first level by which the left side holds at least
	// half of the reachable vertices; the visit order is level-sorted.
	cut := 0
	if half := len(res.Order) / 2; half > 0 {
		cut = level[res.Order[half-1]]
	}

	// Left holds the levels up to the cut except the separator: the
	// vertices at the cut level adjacent to the next level.
	const left, right, separator, unreached = 0, 1, 2, 3
	side := func(v int) int {
		switch l := level[v]; {
		case l == -1:
			return unreached
		case l > cut:
			return right
		case l == cut && g.touchesLevel(v, level, cut+1):
			return separator
		}
		return left
	}
	var count [4]int
	for v := 0; v < n; v++ {
		count[side(v)]++
	}
	// Vertices unreachable from the root (other components) follow
	// the reached ones, each going to the smaller side, Left on a tie.
	nl, nr := count[left], count[right]
	for u := count[unreached]; u > 0; u-- {
		if nl <= nr {
			nl++
		} else {
			nr++
		}
	}
	next := [3]int{0, nl, nl + nr}
	cl, cr := count[left], count[right]
	for v := 0; v < n; v++ {
		switch p := side(v); {
		case p != unreached:
			parts[next[p]] = v
			next[p]++
		case cl <= cr:
			parts[cl] = v
			cl++
		default:
			parts[nl+cr] = v
			cr++
		}
	}
	return Bisection{Left: parts[:nl], Right: parts[nl : nl+nr], Separator: parts[nl+nr : n]}
}

// touchesLevel reports whether v has a neighbor at level l.
func (g *Graph) touchesLevel(v int, level []int, l int) bool {
	for _, w := range g.Neighbors(v) {
		if level[w] == l {
			return true
		}
	}
	return false
}
