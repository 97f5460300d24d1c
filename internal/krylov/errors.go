package krylov

import (
	"errors"
	"fmt"
	"math"

	"javelin/internal/sparse"
)

// Typed error sentinels. Every error returned by CG, GMRES, and
// BiCGSTAB wraps one of these (or comes from the caller's
// context.Context), so callers can dispatch with errors.Is instead of
// string matching. The public javelin package re-exports them.
var (
	// ErrDimension reports a b/x length that does not match the
	// system dimension.
	ErrDimension = errors.New("krylov: dimension mismatch")
	// ErrNonFinite (sparse.ErrNonFinite) reports a NaN or Inf entry
	// in the right-hand side; such a solve can only produce garbage,
	// so it is rejected up front instead of silently diverging. A
	// breakdown on a NaN or ±Inf inner product wraps it too.
	ErrNonFinite = sparse.ErrNonFinite
	// ErrBreakdown reports a Krylov recurrence breakdown (zero or
	// non-finite inner product, singular Hessenberg, ω stagnation). A
	// non-finite one also wraps ErrNonFinite.
	ErrBreakdown = errors.New("krylov: breakdown")
	// ErrStopped reports that the per-iteration Monitor callback
	// requested a stop.
	ErrStopped = errors.New("krylov: stopped by monitor")
)

// IterInfo is the per-iteration progress snapshot handed to
// Options.Monitor. Residual is the relative residual the method
// tracks: the true ‖b−Ax‖/‖b‖ recurrence value for CG and BiCGSTAB,
// and the preconditioned residual estimate (the Givens-rotated rhs
// entry) inside a GMRES restart cycle.
type IterInfo struct {
	Iteration int
	Residual  float64
}

// checkSystem validates the solve inputs shared by all three methods:
// b and x must have length n, and b must be finite (a NaN/Inf rhs
// cannot converge and would otherwise poison every inner product).
func checkSystem(n int, b, x []float64) error {
	if len(b) != n || len(x) != n {
		return fmt.Errorf("%w: len(b)=%d len(x)=%d, want n=%d",
			ErrDimension, len(b), len(x), n)
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("krylov: %w in right-hand side: b[%d]=%g", ErrNonFinite, i, v)
		}
	}
	return nil
}

// step runs the per-iteration hooks in order: context cancellation
// first (so a canceled solve returns ctx.Err() within one iteration
// of cancel), then the user monitor. A non-nil return stops the solve.
func (o Options) step(it int, relres float64) error {
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return err
		}
	}
	if o.Monitor != nil && !o.Monitor(IterInfo{Iteration: it, Residual: relres}) {
		return ErrStopped
	}
	return nil
}

// ctxErr checks cancellation alone — the restart/outer loops use it
// where a full step would wrongly consume a Monitor tick for an
// iteration that has not happened yet.
func (o Options) ctxErr() error {
	if o.Ctx != nil {
		return o.Ctx.Err()
	}
	return nil
}

func breakdown(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBreakdown}, a...)...)
}

// checkInner returns nil for a usable inner product v (the recurrence
// term named term) and a breakdown error otherwise. A NaN or ±Inf v
// means non-finite values reached the recurrence, through the matrix,
// the preconditioner or an overflow: that error wraps both
// ErrBreakdown and ErrNonFinite and makes no guess about the matrix. A
// finite zero wraps ErrBreakdown alone and ends with zeroHint.
func checkInner(term string, v float64, zeroHint string) error {
	if err := checkFinite(term, v); err != nil {
		return err
	}
	if v == 0 {
		return breakdown("%s = 0%s", term, zeroHint)
	}
	return nil
}

// checkFinite is checkInner's non-finite branch alone, for a term
// whose zero is no breakdown (GMRES's β and h[j+1][j]: convergence
// or the lucky breakdown).
func checkFinite(term string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s = %g: %w", ErrBreakdown, term, v, ErrNonFinite)
	}
	return nil
}
