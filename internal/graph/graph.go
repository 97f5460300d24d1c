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

// Subgraph returns the induced subgraph on the given vertices, along
// with the mapping local→global. Vertices must be distinct.
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	local := make(map[int]int, len(vertices))
	for li, v := range vertices {
		local[v] = li
	}
	ptr := make([]int, len(vertices)+1)
	var adj []int
	for li, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if lw, ok := local[w]; ok {
				adj = append(adj, lw)
			}
		}
		ptr[li+1] = len(adj)
	}
	glob := append([]int(nil), vertices...)
	return &Graph{N: len(vertices), Ptr: ptr, Adj: adj}, glob
}

// BFSResult holds the outcome of a breadth-first search.
type BFSResult struct {
	Order  []int // vertices in visit order
	Level  []int // level[v] = distance from root, -1 if unreachable
	Height int   // number of levels (eccentricity+1 of the root)
	Last   int   // a vertex in the last level
}

// BFS runs breadth-first search from root over vertices where
// mask[v] == false (mask == nil means all vertices eligible).
func (g *Graph) BFS(root int, mask []bool) BFSResult {
	level := make([]int, g.N)
	for i := range level {
		level[i] = -1
	}
	order := make([]int, 0, g.N)
	queue := []int{root}
	level[root] = 0
	height, last := 1, root
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		if level[v]+1 > height {
			height = level[v] + 1
			last = v
		}
		for _, w := range g.Neighbors(v) {
			if level[w] == -1 && (mask == nil || !mask[w]) {
				level[w] = level[v] + 1
				queue = append(queue, w)
				if level[w]+1 > height {
					height = level[w] + 1
					last = w
				}
			}
		}
	}
	return BFSResult{Order: order, Level: level, Height: height, Last: last}
}

// PseudoPeripheral returns a vertex of (approximately) maximal
// eccentricity in the component containing start, via the
// George–Liu iteration used by RCM.
func (g *Graph) PseudoPeripheral(start int) int {
	v := start
	res := g.BFS(v, nil)
	for {
		next := res.Last
		// Among last-level vertices, pick one of minimum degree.
		best, bestDeg := next, g.Degree(next)
		for _, u := range res.Order {
			if res.Level[u] == res.Height-1 && g.Degree(u) < bestDeg {
				best, bestDeg = u, g.Degree(u)
			}
		}
		res2 := g.BFS(best, nil)
		if res2.Height <= res.Height {
			return v
		}
		v, res = best, res2
	}
}
