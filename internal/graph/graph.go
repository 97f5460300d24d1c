// Package graph provides the adjacency-structure algorithms the
// ordering and level-scheduling packages build on: breadth-first
// search and pseudo-peripheral vertices (for RCM), connected
// components, maximum bipartite matching (for the Dulmage–Mendelsohn
// style zero-free-diagonal permutation), and vertex separators (for
// nested dissection).
package graph

import "javelin/internal/sparse"

// Graph is an undirected graph in adjacency-list (CSR-like) form.
// Neighbor lists exclude self loops and are sorted ascending.
type Graph struct {
	N   int
	Ptr []int
	Adj []int
}

// FromMatrix builds the undirected adjacency graph of the pattern of
// A+Aᵀ, dropping the diagonal. This is the standard graph model for
// symmetric orderings of possibly-unsymmetric matrices.
func FromMatrix(a *sparse.CSR) *Graph {
	s := a.SymmetrizedPattern()
	n := s.N
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		cnt := 0
		cols, _ := s.Row(i)
		for _, j := range cols {
			if j != i {
				cnt++
			}
		}
		ptr[i+1] = ptr[i] + cnt
	}
	adj := make([]int, ptr[n])
	p := 0
	for i := 0; i < n; i++ {
		cols, _ := s.Row(i)
		for _, j := range cols {
			if j != i {
				adj[p] = j
				p++
			}
		}
	}
	return &Graph{N: n, Ptr: ptr, Adj: adj}
}

// Neighbors returns the adjacency list of v (no copy).
func (g *Graph) Neighbors(v int) []int {
	return g.Adj[g.Ptr[v]:g.Ptr[v+1]]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Subgraph makes sub the subgraph of g induced by vertices, which
// must be distinct: local vertex li is vertices[li], and its neighbor
// list holds, in g's order, the local indices of its neighbors in the
// set. sub's buffers are reused, so an earlier subgraph held in sub
// does not survive the call. local, of length g.N, is the
// global-to-local index (local[v] = 1+li while it is built); it must
// be all zero on entry and is all zero again on return.
func (g *Graph) Subgraph(vertices, local []int, sub *Graph) {
	for li, v := range vertices {
		local[v] = li + 1
	}
	ptr, adj := append(sub.Ptr[:0], 0), sub.Adj[:0]
	for _, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if lw := local[w]; lw > 0 {
				adj = append(adj, lw-1)
			}
		}
		ptr = append(ptr, len(adj))
	}
	for _, v := range vertices {
		local[v] = 0
	}
	sub.N, sub.Ptr, sub.Adj = len(vertices), ptr, adj
}

// Search holds one breadth-first search. The next search run through
// it reuses its buffers, so a caller that searches many times
// allocates them once.
type Search struct {
	Order  []int // vertices in visit order; also the search's queue
	Level  []int // Level[v] = distance from the root, -1 if unreached
	Height int   // number of levels (eccentricity+1 of the root)
	Last   int   // the first vertex reached in the last level
}

// NewSearch returns a Search for graphs of up to n vertices.
func NewSearch(n int) *Search {
	s := &Search{Order: make([]int, 0, n), Level: make([]int, n)}
	for v := range s.Level {
		s.Level[v] = -1
	}
	return s
}

// Root returns the vertex the search started from.
func (s *Search) Root() int { return s.Order[0] }

// BFS runs breadth-first search from root over vertices where
// mask[v] == false (mask == nil means all vertices eligible) into s,
// replacing the search s held. It resets only the levels that search
// set, so it costs O(vertices + edges reached), not O(g.N).
func (g *Graph) BFS(root int, mask []bool, s *Search) {
	level := s.Level
	for _, v := range s.Order {
		level[v] = -1
	}
	queue := append(s.Order[:0], root)
	level[root] = 0
	height, last := 1, root
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		next := level[v] + 1
		for _, w := range g.Neighbors(v) {
			if level[w] == -1 && (mask == nil || !mask[w]) {
				level[w] = next
				queue = append(queue, w)
				if next+1 > height {
					height, last = next+1, w
				}
			}
		}
	}
	s.Order, s.Height, s.Last = queue, height, last
}

// PseudoPeripheral finds a vertex of (approximately) maximal
// eccentricity in the component of start by the George–Liu iteration
// used by RCM: search from v, then move v to a vertex of minimum
// degree in the last level while that deepens the search, at most
// maxIter times. The searches run over mask as in BFS and alternate
// between s and t; the one returned (s or t) is the search from the
// vertex found, which is its Root.
func (g *Graph) PseudoPeripheral(start int, mask []bool, maxIter int, s, t *Search) *Search {
	g.BFS(start, mask, s)
	for iter := 0; iter < maxIter; iter++ {
		// The last level is the tail of the visit order; Last heads it.
		k := len(s.Order) - 1
		for k > 0 && s.Level[s.Order[k-1]] == s.Height-1 {
			k--
		}
		best, bestDeg := s.Last, g.Degree(s.Last)
		for _, u := range s.Order[k:] {
			if g.Degree(u) < bestDeg {
				best, bestDeg = u, g.Degree(u)
			}
		}
		g.BFS(best, mask, t)
		if t.Height <= s.Height {
			return s
		}
		s, t = t, s
	}
	return s
}
