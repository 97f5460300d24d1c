package krylov

import "javelin/internal/spmv"

// Workspace is reusable solver storage. Passing one via Options.Work
// makes CG, GMRES, and BiCGSTAB allocation-free after the first call
// at a given size — the hot-loop requirement for servers running many
// solves (e.g. time-stepping with a solve per step, or per-request
// solves against a shared preconditioner). A Workspace may be reused
// across solvers and across systems of different sizes (it grows to
// the largest seen and never shrinks), but a single Workspace must
// not be used by two solves running concurrently: give each goroutine
// its own.
type Workspace struct {
	// vecs are generic length-n scratch vectors, grown on demand;
	// ret is the reused return slice of vectors (so a warm call
	// performs zero allocations).
	vecs [][]float64
	ret  [][]float64
	// GMRES storage, sized by (n, restart).
	gv       [][]float64 // Krylov basis: restart+1 vectors of length n
	gh       [][]float64 // Hessenberg: restart+1 rows of restart entries
	gcs, gsn []float64
	gg, gy   []float64
	// red holds the deterministic blocked-reduction state (partial
	// sums buffer); see reduce.go.
	red reducer
	// mv is the matrix–vector product with its range body bound once.
	mv spmv.Product
}

// NewWorkspace returns an empty workspace; storage is allocated
// lazily by the first solve that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// vectors returns count independent scratch vectors of length n,
// allocating only what has not been provisioned before.
//
//javelin:alloc-ok amortized growth: allocates only until the workspace reaches size
func (ws *Workspace) vectors(n, count int) [][]float64 {
	for len(ws.vecs) < count {
		ws.vecs = append(ws.vecs, nil)
	}
	if cap(ws.ret) < count {
		ws.ret = make([][]float64, count)
	}
	out := ws.ret[:count]
	for i := 0; i < count; i++ {
		if cap(ws.vecs[i]) < n {
			ws.vecs[i] = make([]float64, n)
		}
		out[i] = ws.vecs[i][:n]
	}
	return out
}

// gmres returns the restarted-GMRES storage for size n and restart m:
// basis v (m+1 × n), Hessenberg h (m+1 × m), Givens cs/sn (m), rhs g
// (m+1), and the small-system solution y (m).
//
//javelin:alloc-ok amortized growth: (re)allocates only when n or restart grows past the largest seen
func (ws *Workspace) gmres(n, m int) (v, h [][]float64, cs, sn, g, y []float64) {
	if len(ws.gv) < m+1 || (len(ws.gv) > 0 && cap(ws.gv[0]) < n) ||
		(len(ws.gh) > 0 && cap(ws.gh[0]) < m) {
		ws.gv = make([][]float64, m+1)
		for i := range ws.gv {
			ws.gv[i] = make([]float64, n)
		}
		ws.gh = make([][]float64, m+1)
		for i := range ws.gh {
			ws.gh[i] = make([]float64, m)
		}
		ws.gcs = make([]float64, m)
		ws.gsn = make([]float64, m)
		ws.gg = make([]float64, m+1)
		ws.gy = make([]float64, m)
	}
	v = ws.gv[:m+1]
	for i := range v {
		v[i] = ws.gv[i][:n]
	}
	h = ws.gh[:m+1]
	for i := range h {
		h[i] = ws.gh[i][:m]
	}
	return v, h, ws.gcs[:m], ws.gsn[:m], ws.gg[:m+1], ws.gy[:m]
}
