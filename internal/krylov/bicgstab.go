package krylov

import (
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// BiCGSTAB solves A·x = b with the preconditioned stabilized
// bi-conjugate gradient method (van der Vorst). It handles the
// unsymmetric systems GMRES targets but with constant memory — seven
// work vectors instead of a restart-length Krylov basis — which makes
// it the method of choice when many solver instances run concurrently
// against one shared preconditioner. x holds the initial guess on
// entry and the solution on exit. Each iteration costs two matvecs
// and two preconditioner applications.
func BiCGSTAB(a *sparse.CSR, m Preconditioner, b, x []float64, opt Options) (Stats, error) {
	n := a.N
	if err := checkSystem(n, b, x); err != nil {
		return Stats{}, err
	}
	opt = opt.withDefaults(n)
	ws := opt.workspace()
	rd := opt.reducer(ws)
	vs := ws.vectors(n, 8)
	r, rhat, p, v, s, t, phat, shat := vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6], vs[7]

	opt.matVec(a, x, v)
	for i := range r {
		r[i] = b[i] - v[i]
	}
	copy(rhat, r)
	for i := range p {
		p[i] = 0
		v[i] = 0
	}
	bnorm := rd.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	rho, alpha, omega := 1.0, 1.0, 1.0

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
		rhoNew := rd.Dot(rhat, r)
		if err := checkInner("BiCGSTAB ρ", rhoNew, ""); err != nil {
			return st, err
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		m.Apply(p, phat)
		opt.matVec(a, phat, v)
		rv := rd.Dot(rhat, v)
		if err := checkInner("BiCGSTAB r̂ᵀv", rv, ""); err != nil {
			return st, err
		}
		alpha = rho / rv
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sn := rd.Norm2(s); sn/bnorm <= opt.Tol {
			// First half-step already converged.
			util.Axpy(alpha, phat, x)
			copy(r, s)
			st.Iterations++
			st.Converged = true
			st.RelResidual = sn / bnorm
			return st, nil
		}
		m.Apply(s, shat)
		opt.matVec(a, shat, t)
		tt := rd.Dot(t, t)
		if err := checkInner("BiCGSTAB tᵀt", tt, ""); err != nil {
			return st, err
		}
		omega = rd.Dot(t, s) / tt
		if omega == 0 {
			return st, breakdown("BiCGSTAB stagnation (ω = 0)")
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
	}
	st.RelResidual = rd.Norm2(r) / bnorm
	return st, nil
}
