// Package order implements the fill-reducing and bandwidth-reducing
// orderings evaluated in the paper's sensitivity analysis (Table II
// and Fig. 13): Natural, Reverse Cuthill–McKee (RCM), approximate
// minimum degree (AMD, standing in for SYMAMD), nested dissection
// (ND, standing in for METIS), and the Dulmage–Mendelsohn style
// zero-free diagonal preprocessing.
//
// All orderings return a sparse.Perm with p[new] = old, suitable for
// sparse.PermuteSym.
package order

import (
	"cmp"
	"slices"

	"javelin/internal/graph"
	"javelin/internal/sparse"
)

// Method names an ordering algorithm.
type Method int

const (
	// Natural keeps the input order (the paper's NAT).
	Natural Method = iota
	// RCM is Reverse Cuthill–McKee.
	RCM
	// AMD is approximate minimum degree (the paper's SYMAMD slot).
	AMD
	// ND is nested dissection by recursive vertex bisection (the
	// paper's METIS ND slot).
	ND
)

// String returns the paper's abbreviation for the method.
func (m Method) String() string {
	switch m {
	case Natural:
		return "NAT"
	case RCM:
		return "RCM"
	case AMD:
		return "AMD"
	case ND:
		return "ND"
	}
	return "?"
}

// Compute returns the permutation for method m applied to the
// adjacency structure of a (pattern of A+Aᵀ). With n rows and nnz
// entries of A+Aᵀ, Natural costs O(n), RCM O(n + nnz) plus its
// neighbor sorts, and ND O((n + nnz)·log n) when its bisections
// balance; AMD is superlinear, since every elimination walks the
// elements it merges. Every method's scratch lives only for the call.
func Compute(m Method, a *sparse.CSR) sparse.Perm {
	switch m {
	case Natural:
		return sparse.Identity(a.N)
	case RCM:
		return ComputeRCM(a)
	case AMD:
		return ComputeAMD(a)
	case ND:
		return ComputeND(a)
	}
	panic("order: unknown method")
}

// ComputeRCM returns the Reverse Cuthill–McKee ordering of a.
// Each connected component is ordered from a pseudo-peripheral
// vertex, visiting neighbors in ascending-degree order; the final
// ordering is reversed. The searches cost O(n + nnz) per
// pseudo-peripheral step (at most nine per component) over two
// reused searches, and sorting each vertex's newly reached neighbors
// O(nnz·log Δ) for maximum degree Δ.
func ComputeRCM(a *sparse.CSR) sparse.Perm {
	g := graph.FromMatrix(a)
	n := g.N
	visited := make([]bool, n)
	order := make([]int, 0, n)
	s, t := graph.NewSearch(n), graph.NewSearch(n)
	for v := 0; v < n; v++ {
		if visited[v] {
			continue
		}
		// The pseudo-peripheral search of the unvisited component.
		root := g.PseudoPeripheral(v, visited, 8, s, t).Root()
		order = appendCuthillMcKee(g, order, root, visited)
	}
	p := make(sparse.Perm, n)
	for i, v := range order {
		p[n-1-i] = v
	}
	return p
}

// appendCuthillMcKee appends to order the Cuthill–McKee order of the
// vertices reachable from root through vertices with blocked[v] ==
// false: a BFS that visits each vertex's newly reached neighbors by
// ascending degree in g, then ascending index. It blocks every vertex
// it appends.
func appendCuthillMcKee(g *graph.Graph, order []int, root int, blocked []bool) []int {
	qi := len(order)
	order = append(order, root)
	blocked[root] = true
	for ; qi < len(order); qi++ {
		start := len(order)
		for _, w := range g.Neighbors(order[qi]) {
			if !blocked[w] {
				blocked[w] = true
				order = append(order, w)
			}
		}
		slices.SortFunc(order[start:], func(x, y int) int {
			if c := cmp.Compare(g.Degree(x), g.Degree(y)); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	return order
}

// ComputeND returns a nested-dissection ordering: recursively bisect
// the graph with vertex separators; left part first, then right part,
// separator last. Small subgraphs fall back to a Cuthill–McKee order
// within the subgraph (minimum-degree-free leaf ordering keeps the
// code simple and has negligible effect at leaf sizes).
//
// Each level of the recursion costs O(n + nnz) of A+Aᵀ, so the
// ordering costs O((n + nnz)·log n) when the bisections balance, as
// on meshes. Its scratch, O(n + nnz) words allocated once per call
// and dropped on return, is the graph of A+Aᵀ, one subgraph and two
// searches reused at every level, three n-word index arrays and an
// n-entry mask.
func ComputeND(a *sparse.CSR) sparse.Perm {
	g := graph.FromMatrix(a)
	n := g.N
	d := &dissection{
		g:       g,
		p:       make(sparse.Perm, 0, n),
		sub:     &graph.Graph{Ptr: make([]int, 0, n+1), Adj: make([]int, 0, len(g.Adj))},
		s:       graph.NewSearch(n),
		t:       graph.NewSearch(n),
		local:   make([]int, n),
		parts:   make([]int, n),
		blocked: make([]bool, n),
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
		d.blocked[i] = true
	}
	d.order(all)
	return d.p
}

// dissection is ComputeND's state. Every buffer is sized once for the
// whole graph: the subgraph and the separator's parts are consumed
// before the recursion descends, and each call rewrites its own
// vertex range in place.
type dissection struct {
	g       *graph.Graph
	p       sparse.Perm  // the ordering, appended to
	sub     *graph.Graph // the current subgraph
	s, t    *graph.Search
	local   []int  // Subgraph's global-to-local index, all zero between uses
	parts   []int  // VertexSeparator's output, then its global indices
	blocked []bool // leafOrder's complement of its unvisited set, all true between uses
}

// order appends the nested-dissection order of vertices to d.p,
// reordering vertices in place.
func (d *dissection) order(vertices []int) {
	const leaf = 64
	if len(vertices) > leaf {
		d.g.Subgraph(vertices, d.local, d.sub)
		b := d.sub.VertexSeparator(d.s, d.t, d.parts)
		// A separator that fails to split (e.g. clique-ish) stops the
		// recursion here.
		if len(b.Left) > 0 && len(b.Right) > 0 {
			// vertices becomes [Left | Right | Separator], global.
			parts := d.parts[:len(vertices)]
			for i, li := range parts {
				parts[i] = vertices[li]
			}
			copy(vertices, parts)
			nl, nr := len(b.Left), len(b.Right)
			d.order(vertices[:nl])
			d.order(vertices[nl : nl+nr])
			d.p = append(d.p, vertices[nl+nr:]...)
			return
		}
	}
	d.leafOrder(vertices)
}

// leafOrder appends a small vertex set to d.p in Cuthill–McKee order
// restricted to the set, each component from its lowest-index vertex,
// sorting vertices in place. It unblocks the set, and the order
// blocks each vertex again as it visits it.
func (d *dissection) leafOrder(vertices []int) {
	for _, v := range vertices {
		d.blocked[v] = false
	}
	slices.Sort(vertices)
	for _, v := range vertices {
		if !d.blocked[v] {
			d.p = appendCuthillMcKee(d.g, d.p, v, d.blocked)
		}
	}
}

// ZeroFreeDiagonal returns the Dulmage–Mendelsohn style row
// permutation placing nonzeros on the diagonal (see graph package).
func ZeroFreeDiagonal(a *sparse.CSR) sparse.Perm {
	return graph.ZeroFreeDiagonalPerm(a)
}
