package graph

import (
	"testing"
	"testing/quick"

	"javelin/internal/gen"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

func pathGraph(n int) *Graph {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
		if i+1 < n {
			coo.AddSym(i, i+1, 1)
		}
	}
	return FromMatrix(coo.ToCSR())
}

func TestFromMatrixDropsDiagonalAndSymmetrizes(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 5)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	coo.Add(0, 1, 1) // one-sided
	g := FromMatrix(coo.ToCSR())
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if g.Neighbors(1)[0] != 0 {
		t.Fatal("symmetrization missing")
	}
}

// TestFromMatrixIsPatternUnion: on random unsymmetric patterns (a few
// columns per row, diagonals sometimes missing, n = 1 included),
// FromMatrix's neighbor lists are exactly the off-diagonal union of A's
// and Aᵀ's patterns, Aᵀ built by Transpose: symmetric, ascending and
// without self loops.
func TestFromMatrixIsPatternUnion(t *testing.T) {
	rng := util.NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		coo := sparse.NewCOO(n, n, 4*n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				coo.Add(i, i, 1)
			}
			for k := rng.Intn(5); k > 0; k-- {
				coo.Add(i, rng.Intn(n), 1)
			}
		}
		a := coo.ToCSR()
		union := map[[2]int]bool{}
		for _, m := range []*sparse.CSR{a, a.Transpose()} {
			for i := 0; i < n; i++ {
				cols, _ := m.Row(i)
				for _, j := range cols {
					if j != i {
						union[[2]int{i, j}] = true
					}
				}
			}
		}
		g := FromMatrix(a)
		if g.N != n || g.Ptr[n] != len(union) {
			t.Fatalf("trial %d: %d vertices and %d neighbor entries, want %d and %d",
				trial, g.N, g.Ptr[n], n, len(union))
		}
		for v := 0; v < n; v++ {
			nb := g.Neighbors(v)
			for k, w := range nb {
				if w == v || !union[[2]int{v, w}] || k > 0 && nb[k-1] >= w {
					t.Fatalf("trial %d: neighbors of %d are %v: a self loop, a pair outside the union, or not ascending",
						trial, v, nb)
				}
			}
		}
	}
}

func TestBFSLevelsOnPath(t *testing.T) {
	g := pathGraph(10)
	res := NewSearch(g.N)
	g.BFS(0, nil, res)
	if res.Height != 10 {
		t.Fatalf("path height %d, want 10", res.Height)
	}
	for v := 0; v < 10; v++ {
		if res.Level[v] != v {
			t.Fatalf("level[%d]=%d", v, res.Level[v])
		}
	}
	if res.Last != 9 {
		t.Fatalf("last %d, want 9", res.Last)
	}
}

func TestPseudoPeripheralOnPathIsEndpoint(t *testing.T) {
	g := pathGraph(25)
	v := g.PseudoPeripheral(12, nil, g.N, NewSearch(g.N), NewSearch(g.N)).Root()
	if v != 0 && v != 24 {
		t.Fatalf("pseudo-peripheral %d, want an endpoint", v)
	}
}

func TestSubgraphInduced(t *testing.T) {
	g := pathGraph(6)
	local := make([]int, g.N)
	vertices := []int{1, 2, 4}
	var sub Graph
	g.Subgraph(vertices, local, &sub)
	if sub.N != 3 {
		t.Fatalf("N=%d", sub.N)
	}
	// Edges: 1-2 only (4 isolated in the induced set).
	if sub.Degree(0) != 1 || sub.Degree(1) != 1 || sub.Degree(2) != 0 {
		t.Fatalf("degrees %d %d %d", sub.Degree(0), sub.Degree(1), sub.Degree(2))
	}
	for v, l := range local {
		if l != 0 {
			t.Fatalf("local[%d] = %d after Subgraph, want 0", v, l)
		}
	}
}

func TestMatchingPerfectOnDiagonalMatrix(t *testing.T) {
	n := 15
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, (i+3)%n, 1)
	}
	a := coo.ToCSR()
	mr, mc := MaxBipartiteMatching(a)
	for i := 0; i < n; i++ {
		if mr[i] != (i+3)%n {
			t.Fatalf("row %d matched to %d", i, mr[i])
		}
		if mc[mr[i]] != i {
			t.Fatal("inverse inconsistent")
		}
	}
}

func TestMatchingMaximality(t *testing.T) {
	check := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		n := 10 + rng.Intn(30)
		coo := sparse.NewCOO(n, n, 4*n)
		for i := 0; i < n; i++ {
			for e := 0; e < 1+rng.Intn(3); e++ {
				coo.Add(i, rng.Intn(n), 1)
			}
		}
		a := coo.ToCSR()
		mr, mc := MaxBipartiteMatching(a)
		// Consistency + no augmenting edge between two unmatched sides.
		for i := 0; i < n; i++ {
			if mr[i] >= 0 && mc[mr[i]] != i {
				return false
			}
			if mr[i] == -1 {
				cols, _ := a.Row(i)
				for _, j := range cols {
					if mc[j] == -1 {
						return false // trivially augmentable → not maximum
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestZeroFreeDiagonalPerm(t *testing.T) {
	// Anti-diagonal matrix: needs a row flip to get a nonzero diag.
	n := 8
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, n-1-i, 1)
	}
	a := coo.ToCSR()
	p := ZeroFreeDiagonalPerm(a)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	b := sparse.PermuteRows(a, p)
	if !b.HasFullDiagonal() {
		t.Fatal("diagonal still missing after DM permutation")
	}
}

func TestVertexSeparatorSplitsMesh(t *testing.T) {
	a := gen.GridLaplacian(16, 16, 1, gen.Star5, 1)
	g := FromMatrix(a)
	b := g.VertexSeparator(NewSearch(g.N), NewSearch(g.N), make([]int, g.N))
	total := len(b.Left) + len(b.Right) + len(b.Separator)
	if total != g.N {
		t.Fatalf("partition covers %d of %d", total, g.N)
	}
	if len(b.Left) == 0 || len(b.Right) == 0 {
		t.Fatal("degenerate bisection")
	}
	// Separator quality on a 16×16 grid: should be O(side), certainly
	// far below N/4.
	if len(b.Separator) > g.N/4 {
		t.Errorf("separator size %d too large", len(b.Separator))
	}
	// No edge may connect Left directly to Right.
	inLeft := map[int]bool{}
	for _, v := range b.Left {
		inLeft[v] = true
	}
	inRight := map[int]bool{}
	for _, v := range b.Right {
		inRight[v] = true
	}
	for _, v := range b.Left {
		for _, w := range g.Neighbors(v) {
			if inRight[w] {
				t.Fatalf("edge %d-%d crosses the separator", v, w)
			}
		}
	}
}
