// Package krylov implements the iterative methods the paper's
// preconditioners serve: preconditioned conjugate gradients (PCG, for
// the SPD group-A matrices of Table II) and restarted GMRES(m) (for
// the unsymmetric group-B matrices). Both accept any preconditioner
// through the Preconditioner interface, so Javelin, the serial ILU
// reference, and the identity can be compared on iteration counts.
package krylov

import (
	"context"
	"math"

	"javelin/internal/exec"
	"javelin/internal/kernels"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// Preconditioner applies z ≈ M⁻¹ r.
type Preconditioner interface {
	Apply(r, z []float64)
}

// Identity is the no-preconditioning baseline.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// Stats reports the outcome of a solve. MatrixEpoch and FactorEpoch
// identify the (A, factor) generation pair the whole solve ran
// against when the caller pinned epoch-versioned state (0 when not
// epoch-versioned); the loops themselves never change them — they are
// filled in by the pinning caller so the pair travels with the
// result.
type Stats struct {
	Iterations  int
	Converged   bool
	RelResidual float64 // ‖b−Ax‖₂ / ‖b‖₂ at exit
	MatrixEpoch uint64
	FactorEpoch uint64
}

// Options bounds a solve. Tol is relative to ‖b‖₂ (Table II uses
// 1e-6). MaxIter 0 means 10·N. Restart (GMRES only) 0 means 50.
// Work, when non-nil, supplies reusable storage so the solve performs
// no per-call allocation (after the workspace has grown to size).
//
// Every matrix–vector product runs the workspace's spmv.Product, the
// kernel table's SpMVRows. Threads > 1 deals Threads row ranges on
// Runtime (nil means the process-wide default runtime) — the
// SpMV-bound half of every Krylov iteration, which on a warm runtime
// costs block claims rather than goroutine spawns. Threads <= 1 runs
// the same kernel inline and never touches a runtime. Vector
// reductions (Dot, Norm2) use deterministic blocked summation at every
// thread count — fixed block size, ordered combine (see reduce.go) —
// so the convergence trajectory is bit-identical whether a solve runs
// on 1 thread or many.
//
// Ctx, when non-nil, is checked at the top of every iteration: once it
// is canceled (or its deadline passes) the solve returns ctx.Err()
// with the stats accumulated so far, within one iteration of cancel.
// Monitor, when non-nil, is called once per iteration with the current
// IterInfo; returning false stops the solve with ErrStopped. Both
// hooks are how the public Solver session API plumbs cancellation and
// progress observation into the loops.
// Vals, when non-nil, is the value slice every matrix–vector product
// reads instead of a.Val — the epoch-pinned channel: a caller that
// pinned a versioned matrix epoch passes that epoch's buffer here, so
// the whole solve sees one consistent A even if new values publish
// mid-solve. Must be indexed by a's pattern (len == a.Nnz()).
type Options struct {
	Tol     float64
	MaxIter int
	Restart int
	Work    *Workspace
	Threads int
	Runtime *exec.Runtime
	Ctx     context.Context
	Monitor func(IterInfo) bool
	Vals    []float64
}

// matVec computes y = A·x with the configured parallelism on the
// workspace's Product, reading the pinned value slice when one was
// supplied.
func (o Options) matVec(a *sparse.CSR, x, y []float64) {
	vals := o.Vals
	if vals == nil {
		vals = a.Val
	}
	o.Work.mv.Mul(o.Runtime, a, vals, x, y, o.Threads)
}

// withDefaults fills in the defaults, and a private throwaway
// Workspace when the caller supplied none.
func (o Options) withDefaults(n int) Options {
	if o.Work == nil {
		//javelin:alloc-ok cold path: allocates only when the caller supplied no Workspace
		o.Work = NewWorkspace()
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 1000 {
			o.MaxIter = 1000
		}
	}
	if o.Restart <= 0 {
		o.Restart = 50
	}
	return o
}

// CG solves A·x = b with preconditioned conjugate gradients. A must
// be symmetric positive definite for the theory to hold; x holds the
// initial guess on entry and the solution on exit.
//
//javelin:noalloc
func CG(a *sparse.CSR, m Preconditioner, b, x []float64, opt Options) (Stats, error) {
	n := a.N
	if err := checkSystem(n, b, x); err != nil {
		return Stats{}, err
	}
	opt = opt.withDefaults(n)
	ws := opt.Work
	rd := opt.reducer(ws)
	vs := ws.vectors(n, 4)
	r, z, p, ap := vs[0], vs[1], vs[2], vs[3]

	opt.matVec(a, x, ap)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	bnorm := rd.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	m.Apply(r, z)
	copy(p, z)
	rz := rd.Dot(r, z)

	st := Stats{}
	for st.Iterations = 0; st.Iterations < opt.MaxIter; st.Iterations++ {
		res := rd.Norm2(r)
		st.RelResidual = res / bnorm
		if st.RelResidual <= opt.Tol {
			st.Converged = true
			return st, nil
		}
		if err := opt.step(st.Iterations, st.RelResidual); err != nil {
			return st, err
		}
		opt.matVec(a, p, ap)
		pap := rd.Dot(p, ap)
		if err := checkInner("CG pᵀAp", pap, "; matrix may not be SPD"); err != nil {
			return st, err
		}
		alpha := rz / pap
		util.Axpy(alpha, p, x)
		util.Axpy(-alpha, ap, r)
		m.Apply(r, z)
		rzNew := rd.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	st.RelResidual = rd.Norm2(r) / bnorm
	return st, nil
}

// GMRES solves A·x = b with left-preconditioned restarted GMRES(m).
// A NaN or ±Inf β at a restart or h[j+1][j] in the Arnoldi loop stops
// it with ErrBreakdown wrapping ErrNonFinite; a zero there is
// convergence or the lucky breakdown.
//
//javelin:noalloc
func GMRES(a *sparse.CSR, m Preconditioner, b, x []float64, opt Options) (Stats, error) {
	n := a.N
	if err := checkSystem(n, b, x); err != nil {
		return Stats{}, err
	}
	opt = opt.withDefaults(n)
	restart := opt.Restart

	// Krylov basis and Hessenberg (restart+1 columns), plus the
	// small-system solution y, all from the workspace.
	ws := opt.Work
	rd := opt.reducer(ws)
	v, h, cs, sn, g, y := ws.gmres(n, restart)
	vs := ws.vectors(n, 2)
	w, t := vs[0], vs[1]

	bnorm := rd.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	st := Stats{}

	trueResidual := func() float64 {
		opt.matVec(a, x, t)
		for i := range w {
			w[i] = b[i] - t[i]
		}
		return rd.Norm2(w) / bnorm
	}

	for st.Iterations < opt.MaxIter {
		// Cancellation must land within one iteration even across a
		// restart boundary, and the residual rebuild below is two
		// kernel calls deep.
		if err := opt.ctxErr(); err != nil {
			return st, err
		}
		// r0 = M⁻¹(b − A·x)
		opt.matVec(a, x, t)
		for i := range w {
			w[i] = b[i] - t[i]
		}
		m.Apply(w, v[0])
		beta := rd.Norm2(v[0])
		if err := checkFinite("GMRES β", beta); err != nil {
			return st, err
		}
		if beta == 0 {
			st.Converged = true
			st.RelResidual = trueResidual()
			return st, nil
		}
		kernels.Scale(1/beta, v[0])
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j := 0
		for ; j < restart && st.Iterations < opt.MaxIter; j++ {
			// g[j] is the preconditioned residual estimate entering
			// this iteration — the value the monitor sees.
			if err := opt.step(st.Iterations, math.Abs(g[j])/bnorm); err != nil {
				return st, err
			}
			st.Iterations++
			// w = M⁻¹ A v_j, modified Gram–Schmidt.
			opt.matVec(a, v[j], t)
			m.Apply(t, w)
			for i := 0; i <= j; i++ {
				h[i][j] = rd.Dot(w, v[i])
				util.Axpy(-h[i][j], v[i], w)
			}
			h[j+1][j] = rd.Norm2(w)
			if err := checkFinite("GMRES h[j+1][j]", h[j+1][j]); err != nil {
				return st, err
			}
			if h[j+1][j] != 0 {
				inv := 1 / h[j+1][j]
				for i := range w {
					v[j+1][i] = w[i] * inv
				}
			}
			// Apply stored Givens rotations, then create a new one.
			for i := 0; i < j; i++ {
				tmp := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = tmp
			}
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom == 0 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j] = h[j][j] / denom
				sn[j] = h[j+1][j] / denom
			}
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			// g[j+1] tracks the preconditioned residual norm; use it
			// as the inner stopping heuristic, then confirm with the
			// true residual after the update.
			if math.Abs(g[j+1]) <= opt.Tol*bnorm {
				j++
				break
			}
		}
		// Solve the small triangular system and update x.
		y := y[:j]
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i][k] * y[k]
			}
			if h[i][i] == 0 {
				return st, breakdown("GMRES singular Hessenberg at column %d", i)
			}
			y[i] = s / h[i][i]
		}
		for i := 0; i < j; i++ {
			util.Axpy(y[i], v[i], x)
		}
		st.RelResidual = trueResidual()
		if st.RelResidual <= opt.Tol {
			st.Converged = true
			return st, nil
		}
	}
	return st, nil
}
