package javelin

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"javelin/internal/krylov"
)

// Method names an iterative solution method.
type Method int

// Supported methods. MethodAuto picks from the matrix at NewSolver
// time: CG when the matrix is symmetric — pattern AND values, since
// CG's theory needs A = Aᵀ and a structurally-symmetric circuit or
// FEM matrix is routinely unsymmetric in its values (the paper's
// group-A/group-B divide) — and restarted GMRES otherwise.
const (
	MethodAuto Method = iota
	MethodCG
	MethodGMRES
	MethodBiCGSTAB
)

// String returns the conventional method name.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodCG:
		return "cg"
	case MethodGMRES:
		return "gmres"
	case MethodBiCGSTAB:
		return "bicgstab"
	}
	return "?"
}

// Typed solve errors. Every failing Solve returns a *SolveError
// wrapping one of these sentinels (or the context's error), so
// callers dispatch with errors.Is and recover the iteration stats
// with errors.As:
//
//	st, err := s.Solve(ctx, b, x)
//	switch {
//	case errors.Is(err, javelin.ErrNotConverged): ...
//	case errors.Is(err, context.DeadlineExceeded): ...
//	}
//	var se *javelin.SolveError
//	if errors.As(err, &se) { log.Printf("stopped at iter %d", se.Stats.Iterations) }
var (
	// ErrNotConverged: MaxIter iterations did not reach Tol.
	ErrNotConverged = errors.New("javelin: solve did not converge within MaxIter")
	// ErrDimension: b or x length does not match the system.
	ErrDimension = krylov.ErrDimension
	// ErrNonFinite: a NaN or ±Inf value. Solve wraps it (in a
	// *SolveError) for a non-finite right-hand side, and together
	// with ErrBreakdown when a non-finite inner product stops the
	// recurrence; Factorize, Refactorize, NewVersionedMatrix,
	// UpdateValues and UpdateMatrix return it wrapped, naming the
	// entry, for non-finite matrix values, and publish nothing.
	ErrNonFinite = krylov.ErrNonFinite
	// ErrBreakdown: the Krylov recurrence broke down (e.g. CG on a
	// non-SPD matrix, BiCGSTAB ρ = 0). A NaN or ±Inf inner product
	// wraps ErrNonFinite too.
	ErrBreakdown = krylov.ErrBreakdown
	// ErrStopped: the WithMonitor callback returned false.
	ErrStopped = krylov.ErrStopped
)

// IterInfo is the per-iteration snapshot passed to WithMonitor
// callbacks: the iteration number and the method's current relative
// residual (the preconditioned estimate inside GMRES restart cycles).
type IterInfo = krylov.IterInfo

// SolveError is the error type every failing Solve returns. It
// carries the SolverStats at the point of failure and unwraps to the
// underlying cause (one of the sentinel errors above, or the
// context's error on cancellation), so both errors.Is and errors.As
// work through it.
type SolveError struct {
	Method Method
	Stats  SolverStats
	err    error
}

// Error describes the failure with the method and iteration context.
func (e *SolveError) Error() string {
	return fmt.Sprintf("javelin: %s solve failed after %d iterations (relres %.3g): %v",
		e.Method, e.Stats.Iterations, e.Stats.RelResidual, e.err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *SolveError) Unwrap() error { return e.err }

// SolverOption configures a Solver at construction.
type SolverOption func(*solverConfig)

type solverConfig struct {
	method  Method
	tol     float64
	maxIter int
	restart int
	threads int
	runtime *Runtime
	monitor func(IterInfo) bool
	drift   *DriftPolicy
	// errs collects invalid option values; NewSolver reports them
	// instead of letting a nonsensical bound misbehave mid-solve
	// (Tol NaN never converges, MaxIter 0 "succeeds" instantly, ...).
	errs []error
}

func (c *solverConfig) badOption(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// WithMethod selects the iterative method (default MethodAuto: CG for
// pattern- and value-symmetric matrices, GMRES otherwise).
func WithMethod(m Method) SolverOption { return func(c *solverConfig) { c.method = m } }

// WithTol sets the relative-residual convergence tolerance ‖b−Ax‖/‖b‖
// (default 1e-6, the paper's evaluation setting). The tolerance must
// be a positive finite number; zero, negative, NaN, or +Inf values
// make NewSolver fail (a NaN tolerance can never be reached and would
// silently spin every solve to MaxIter; an infinite one is reached
// instantly and would "converge" without doing any work).
func WithTol(tol float64) SolverOption {
	return func(c *solverConfig) {
		if tol <= 0 || math.IsNaN(tol) || math.IsInf(tol, 1) {
			c.badOption("WithTol(%v): tolerance must be a positive finite number", tol)
			return
		}
		c.tol = tol
	}
}

// WithMaxIter bounds the iteration count (default 10·N, at least
// 1000). Exceeding it makes Solve return ErrNotConverged. The bound
// must be positive; zero or negative values make NewSolver fail.
func WithMaxIter(n int) SolverOption {
	return func(c *solverConfig) {
		if n <= 0 {
			c.badOption("WithMaxIter(%d): iteration bound must be positive", n)
			return
		}
		c.maxIter = n
	}
}

// WithRestart sets the GMRES restart length m (default 50). Ignored
// by the other methods. The length must be positive; zero or negative
// values make NewSolver fail.
func WithRestart(m int) SolverOption {
	return func(c *solverConfig) {
		if m <= 0 {
			c.badOption("WithRestart(%d): restart length must be positive", m)
			return
		}
		c.restart = m
	}
}

// WithThreads sets the parallelism of the solver's own matrix–vector
// products and reductions. 0 (the default) inherits the
// preconditioner's thread count, or runs serially when there is no
// preconditioner; negative values make NewSolver fail. Results are
// bit-identical at every thread count (deterministic blocked
// reductions), so this is purely a performance knob.
func WithThreads(n int) SolverOption {
	return func(c *solverConfig) {
		if n < 0 {
			c.badOption("WithThreads(%d): thread count must not be negative", n)
			return
		}
		c.threads = n
	}
}

// WithRuntime schedules the solver's parallel work on rt instead of
// the preconditioner's runtime (or the process default). The caller
// owns rt.
func WithRuntime(rt *Runtime) SolverOption { return func(c *solverConfig) { c.runtime = rt } }

// WithMonitor installs a per-iteration callback. It receives the
// current IterInfo and returns whether to continue; returning false
// stops the solve with ErrStopped. The callback runs on the solving
// goroutine — with concurrent Solve callers it must be safe for
// concurrent use.
func WithMonitor(f func(IterInfo) bool) SolverOption { return func(c *solverConfig) { c.monitor = f } }

// WithAutoRefactorize enables monitor-driven automatic
// refactorization: the solver watches every solve for drift between
// the published matrix values and the values the preconditioner was
// factored from (iteration counts inflating past the fresh-pair
// baseline, mid-solve residual growth, non-convergence) and, when
// drift shows, refactorizes from the newest matrix generation in a
// single-flight background goroutine — solve traffic never waits. A
// failed refactorization keeps the previous (A, factor) pair serving
// and counts in DriftStats.Failures.
//
// Only valid on NewVersionedSolver with a preconditioner (drift is
// defined against a VersionedMatrix's update stream); NewSolver
// rejects it. Call Solver.Close when done so an in-flight background
// refactorization is waited out.
func WithAutoRefactorize(p DriftPolicy) SolverOption {
	return func(c *solverConfig) { c.drift = &p }
}

// Solver is a reusable, concurrency-safe session for iterative solves
// of one system shape: A (and optionally a Preconditioner) bound at
// construction, then Solve called any number of times — from any
// number of goroutines simultaneously — with per-call right-hand
// sides. Each call draws its preconditioner-application context and
// Krylov workspace from internal pools, so warm solves allocate
// nothing and N concurrent callers cost N× scratch only while they
// are actually solving.
//
// Solver is the package's only iterative-solve entry point: build one
// per system and share it between callers.
type Solver struct {
	m      *Matrix
	p      *Preconditioner
	cfg    solverConfig
	method Method // resolved, never MethodAuto

	// vm, when non-nil (NewVersionedSolver), is the live matrix: each
	// Solve pins one value generation for its whole duration, paired
	// with the factor epoch its preconditioner context pinned, so the
	// solve sees one consistent (A, factor) pair however many
	// UpdateValues/Refactorize publications land mid-flight. m then
	// holds the construction-time snapshot (method resolution and
	// shape only — solve paths read the pinned generation instead).
	vm *VersionedMatrix
	// drift is the auto-refactorization controller (nil unless
	// WithAutoRefactorize).
	drift *driftController

	// wsPool recycles Krylov workspaces across Solve calls; the
	// preconditioner contexts are pooled by the engine itself
	// (core.Engine.AcquireContext).
	wsPool sync.Pool
}

// NewSolver builds a solve session over m, preconditioned by p (nil
// means unpreconditioned). The variadic options select the method and
// bounds; defaults are the paper's evaluation settings (MethodAuto,
// Tol 1e-6, MaxIter 10·N, Restart 50, threads inherited from p).
//
// The returned Solver is immutable and safe for unlimited concurrent
// Solve calls. It holds no resources beyond its pools; there is
// nothing to close (the Preconditioner's lifetime is managed
// separately and must cover the Solver's).
func NewSolver(m *Matrix, p *Preconditioner, opts ...SolverOption) (*Solver, error) {
	if m == nil || m.csr == nil {
		return nil, errors.New("javelin: NewSolver: nil matrix")
	}
	s, err := newSolver(m, nil, p, opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.drift != nil {
		return nil, errors.New("javelin: NewSolver: WithAutoRefactorize requires NewVersionedSolver (drift is defined against a VersionedMatrix)")
	}
	return s, nil
}

// NewVersionedSolver builds a solve session over a live
// VersionedMatrix: every Solve pins one matrix value generation for
// its whole duration and pairs it with the factor epoch its
// preconditioner context pins, so each solve runs against exactly one
// published (A, factor) pair even while UpdateValues and Refactorize
// publish concurrently. Options are those of NewSolver plus
// WithAutoRefactorize; MethodAuto resolves against the generation
// current at construction.
//
// The returned Solver is safe for unlimited concurrent Solve calls
// concurrent with vm.UpdateValues. With WithAutoRefactorize
// configured, call Close when done; p should have been factorized
// from vm's current generation (NewVersionedSolver does not
// refactorize on your behalf).
func NewVersionedSolver(vm *VersionedMatrix, p *Preconditioner, opts ...SolverOption) (*Solver, error) {
	if vm == nil {
		return nil, errors.New("javelin: NewVersionedSolver: nil matrix")
	}
	s, err := newSolver(vm.Matrix(), vm, p, opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.drift != nil {
		if p == nil {
			return nil, errors.New("javelin: NewVersionedSolver: WithAutoRefactorize requires a preconditioner")
		}
		s.drift = newDriftController(vm, p, *s.cfg.drift, s.cfg.monitor)
	}
	return s, nil
}

// newSolver is the shared construction path: option folding, method
// resolution, and thread/runtime inheritance. m is the (snapshot)
// matrix used for shape checks and MethodAuto resolution.
func newSolver(m *Matrix, vm *VersionedMatrix, p *Preconditioner, opts []SolverOption) (*Solver, error) {
	if m.N() != m.Cols() {
		return nil, fmt.Errorf("%w: matrix is %d×%d, want square", ErrDimension, m.N(), m.Cols())
	}
	if p != nil && p.e.N() != m.N() {
		return nil, fmt.Errorf("%w: preconditioner is %d×%d, matrix is %d×%d",
			ErrDimension, p.e.N(), p.e.N(), m.N(), m.N())
	}
	s := &Solver{m: m, vm: vm, p: p}
	for _, o := range opts {
		o(&s.cfg)
	}
	if len(s.cfg.errs) > 0 {
		return nil, fmt.Errorf("javelin: NewSolver: %w", errors.Join(s.cfg.errs...))
	}
	switch s.cfg.method {
	case MethodAuto:
		// Pattern symmetry alone is not enough for CG: a structurally
		// symmetric matrix with unsymmetric values (circuit and FEM
		// matrices, routinely) would make the CG recurrence break down
		// mid-solve. The pattern check first keeps the common
		// unsymmetric case cheap.
		if m.PatternSymmetric() && m.NumericallySymmetric(0) {
			s.method = MethodCG
		} else {
			s.method = MethodGMRES
		}
	case MethodCG, MethodGMRES, MethodBiCGSTAB:
		s.method = s.cfg.method
	default:
		return nil, fmt.Errorf("javelin: NewSolver: unknown method %d", int(s.cfg.method))
	}
	if s.cfg.threads <= 0 {
		if p != nil {
			s.cfg.threads = p.e.Threads()
		} else {
			s.cfg.threads = 1
		}
	}
	if s.cfg.runtime == nil && p != nil && s.cfg.threads > 1 {
		s.cfg.runtime = p.e.Runtime()
	}
	return s, nil
}

// Method reports the resolved method (never MethodAuto).
func (s *Solver) Method() Method { return s.method }

// Solve solves A·x = b. x holds the initial guess on entry and the
// best iterate on exit. It is safe for any number of concurrent
// callers on one Solver, and allocation-free once the internal pools
// are warm.
//
// ctx cancellation is honored between iterations: after cancel the
// call returns within one iteration with an error satisfying
// errors.Is(err, ctx.Err()). On any failure the returned error is a
// *SolveError carrying the SolverStats at the stopping point;
// non-convergence within MaxIter is reported as ErrNotConverged (x
// still holds the best iterate, and the attached stats its residual).
//
// The Krylov workspace and the preconditioner context are drawn from
// pools for the duration of the call (the identity when
// unpreconditioned). On a versioned solver this is also the single
// place the (A-epoch, factor-epoch) pair is pinned: the matrix pin and
// the acquired context's factor pin both span the whole solve, so
// every matvec and every preconditioner application inside it reads
// the same two published generations.
//
//javelin:noalloc
func (s *Solver) Solve(ctx context.Context, b, x []float64) (SolverStats, error) {
	ws, _ := s.wsPool.Get().(*krylov.Workspace)
	if ws == nil {
		ws = krylov.NewWorkspace()
	}
	defer s.wsPool.Put(ws)
	var vals []float64
	var mEpoch uint64
	if s.vm != nil {
		ep := s.vm.Pin()
		defer s.vm.Unpin(ep)
		vals = ep.Vals()
		mEpoch = ep.Seq()
	}
	var pc krylov.Preconditioner = krylov.Identity{}
	var fEpoch uint64
	if s.p != nil {
		c := s.p.e.AcquireContext()
		defer s.p.e.ReleaseContext(c)
		pc = c
		fEpoch = c.FactorEpoch()
	}
	mon := s.cfg.monitor
	var probe *driftProbe
	if s.drift != nil {
		probe = s.drift.acquireProbe()
		defer s.drift.releaseProbe(probe)
		mon = probe.fn
	}
	st, err := s.run(ctx, pc, ws, b, x, vals, mon)
	st.MatrixEpoch = mEpoch
	st.FactorEpoch = fEpoch
	if s.drift != nil {
		s.drift.observe(st, err == nil && st.Converged, probe.grew)
	}
	return s.finish(st, err)
}

// run dispatches to the krylov loops with the session configuration
// and the given per-call preconditioner, workspace, pinned matrix
// values (nil means the matrix's own), and monitor.
func (s *Solver) run(ctx context.Context, pc krylov.Preconditioner, ws *krylov.Workspace, b, x []float64, vals []float64, mon func(IterInfo) bool) (SolverStats, error) {
	opt := krylov.Options{
		Tol:     s.cfg.tol,
		MaxIter: s.cfg.maxIter,
		Restart: s.cfg.restart,
		Work:    ws,
		Threads: s.cfg.threads,
		Runtime: s.cfg.runtime,
		Ctx:     ctx,
		Monitor: mon,
		Vals:    vals,
	}
	switch s.method {
	case MethodGMRES:
		return krylov.GMRES(s.m.csr, pc, b, x, opt)
	case MethodBiCGSTAB:
		return krylov.BiCGSTAB(s.m.csr, pc, b, x, opt)
	default:
		return krylov.CG(s.m.csr, pc, b, x, opt)
	}
}

// DriftStats returns the auto-refactorization counters (all zero
// unless the solver was built with WithAutoRefactorize).
func (s *Solver) DriftStats() DriftStats {
	if s.drift == nil {
		return DriftStats{}
	}
	return s.drift.snapshot()
}

// Close stops the auto-refactorization policy: no further background
// refactorizations launch, and an in-flight one is waited for (it
// finishes and publishes or fails normally — it is never abandoned
// mid-build). Solve calls remain valid after Close; they simply run
// without the drift policy. Close is a no-op on solvers without
// WithAutoRefactorize and is safe to call more than once.
func (s *Solver) Close() {
	if s.drift != nil {
		s.drift.close()
	}
}

// finish converts the krylov outcome to the Solver error contract:
// nil on convergence, a stats-carrying *SolveError otherwise.
//
//javelin:alloc-ok error path: a failed solve allocates its *SolveError; the success path is clean
func (s *Solver) finish(st SolverStats, err error) (SolverStats, error) {
	if err == nil {
		if st.Converged {
			return st, nil
		}
		err = ErrNotConverged
	}
	return st, &SolveError{Method: s.method, Stats: st, err: err}
}
