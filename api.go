package javelin

import (
	"errors"
	"io"

	"javelin/internal/core"
	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/krylov"
	"javelin/internal/mmio"
	"javelin/internal/order"
	"javelin/internal/sparse"
)

// Runtime is Javelin's persistent execution runtime: a fixed pool of
// spin-then-park worker goroutines that every parallel region —
// factorization stages, SpMV, reductions — schedules onto, so hot
// paths never spawn goroutines per call. One Runtime can back any
// number of Preconditioners and concurrent Appliers (set
// Options.Runtime); see doc.go's "Execution runtime & threading
// contract" section for the sharing rules.
type Runtime = exec.Runtime

// NewRuntime creates a runtime with the given total parallelism
// (worker goroutines plus the calling goroutine of each region).
// threads <= 0 means GOMAXPROCS. The caller owns it: Close it after
// every engine using it is done.
func NewRuntime(threads int) *Runtime { return exec.New(threads) }

// DefaultRuntime returns the lazily created process-wide runtime
// (GOMAXPROCS lanes, never closed) that components without an
// explicit Runtime run on.
func DefaultRuntime() *Runtime { return exec.Default() }

// RuntimeStats is a snapshot of a Runtime's activity counters:
// regions executed, chunk claims, and worker park/wake churn
// (StealAttempts, StealSuccesses, Gangs and GangWaitNs are always 0).
// Collection is always on and costs only per-region atomics, so
// snapshots are cheap and safe to poll from monitoring loops;
// RuntimeStats.Sub subtracts an earlier snapshot for per-phase
// deltas. Obtain one from Runtime.Stats() or
// Preconditioner.RuntimeStats(); see doc.go's "Runtime metrics"
// section.
type RuntimeStats = exec.Stats

// RuntimeStats returns a snapshot of the activity counters of the
// runtime this preconditioner schedules on — the private runtime
// Factorize created, or the shared one passed via Options.Runtime (in
// which case the counters cover every engine sharing it).
func (p *Preconditioner) RuntimeStats() RuntimeStats { return p.e.Runtime().Stats() }

// Matrix is an immutable sparse matrix in CSR form.
type Matrix struct {
	csr *sparse.CSR
}

// N returns the number of rows.
func (m *Matrix) N() int { return m.csr.N }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.csr.M }

// Nnz returns the number of stored entries.
func (m *Matrix) Nnz() int { return m.csr.Nnz() }

// RowDensity returns Nnz/N (the paper's RD).
func (m *Matrix) RowDensity() float64 { return m.csr.RowDensity() }

// PatternSymmetric reports whether the sparsity pattern is symmetric.
func (m *Matrix) PatternSymmetric() bool { return m.csr.PatternSymmetric() }

// NumericallySymmetric reports whether the matrix equals its
// transpose to within tol (absolute) on every stored entry — the
// symmetry MethodAuto requires before selecting CG.
func (m *Matrix) NumericallySymmetric(tol float64) bool { return m.csr.NumericallySymmetric(tol) }

// At returns the entry at (i, j) (0 when not stored). For tests and
// inspection, not inner loops.
func (m *Matrix) At(i, j int) float64 { return m.csr.At(i, j) }

// MatVec computes y = A·x.
func (m *Matrix) MatVec(x, y []float64) { m.csr.MatVec(x, y) }

// Raw exposes the underlying CSR for advanced integrations. The
// returned value must not be mutated.
func (m *Matrix) Raw() *sparse.CSR { return m.csr }

// WrapCSR adopts a raw CSR (validated) as a Matrix.
func WrapCSR(c *sparse.CSR) (*Matrix, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Matrix{csr: c}, nil
}

// Builder accumulates entries in coordinate form; duplicates are
// summed by Build.
type Builder struct {
	coo *sparse.COO
}

// NewBuilder starts an n×n builder with a capacity hint.
func NewBuilder(n, capHint int) *Builder {
	return &Builder{coo: sparse.NewCOO(n, n, capHint)}
}

// Add appends entry (i, j, v).
func (b *Builder) Add(i, j int, v float64) { b.coo.Add(i, j, v) }

// AddSym appends (i, j, v) and its mirror.
func (b *Builder) AddSym(i, j int, v float64) { b.coo.AddSym(i, j, v) }

// Build finalizes the matrix.
func (b *Builder) Build() *Matrix { return &Matrix{csr: b.coo.ToCSR()} }

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	c, err := mmio.Read(r)
	if err != nil {
		return nil, err
	}
	return &Matrix{csr: c}, nil
}

// ReadMatrixMarketFile loads a .mtx file.
func ReadMatrixMarketFile(path string) (*Matrix, error) {
	c, err := mmio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Matrix{csr: c}, nil
}

// WriteMatrixMarket writes m in coordinate form.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return mmio.Write(w, m.csr) }

// Stencil re-exports the grid generator stencils.
type Stencil = gen.Stencil

// Stencil kinds for GridLaplacian.
const (
	Star5  = gen.Star5
	Box9   = gen.Box9
	Star7  = gen.Star7
	Box27  = gen.Box27
	Wide13 = gen.Wide13
	Wide25 = gen.Wide25
	Star19 = gen.Star19
	Wide37 = gen.Wide37
)

// GridLaplacian generates an SPD finite-difference Laplacian (see
// internal/gen for the stencil catalog).
func GridLaplacian(nx, ny, nz int, st Stencil, shift float64) *Matrix {
	return &Matrix{csr: gen.GridLaplacian(nx, ny, nz, st, shift)}
}

// CircuitOptions configures the synthetic circuit generator.
type CircuitOptions = gen.CircuitOptions

// Circuit generates a circuit-simulation-like matrix.
func Circuit(o CircuitOptions) *Matrix { return &Matrix{csr: gen.Circuit(o)} }

// TetraMesh generates an unsymmetric-pattern FEM-like matrix.
func TetraMesh(nx, ny, nz int, seed uint64) *Matrix {
	return &Matrix{csr: gen.TetraMesh(nx, ny, nz, seed)}
}

// Ordering names a fill/bandwidth-reducing permutation algorithm.
type Ordering int

// Supported orderings (paper Table II).
const (
	OrderNatural Ordering = iota
	OrderRCM
	OrderAMD
	OrderND
)

// Permutation maps new indices to old: p[new] = old.
type Permutation = sparse.Perm

// ComputeOrdering returns the permutation for the given ordering.
// With n rows and nnz entries of A+Aᵀ, OrderNatural costs O(n),
// OrderRCM about O(n + nnz), and OrderND O((n + nnz)·log n) when its
// bisections balance, as on meshes; OrderAMD is superlinear. The
// scratch each one allocates lives only for the call.
func ComputeOrdering(o Ordering, m *Matrix) Permutation {
	var meth order.Method
	switch o {
	case OrderNatural:
		meth = order.Natural
	case OrderRCM:
		meth = order.RCM
	case OrderAMD:
		meth = order.AMD
	case OrderND:
		meth = order.ND
	default:
		meth = order.Natural
	}
	return order.Compute(meth, m.csr)
}

// ZeroFreeDiagonal returns a row permutation placing nonzeros on the
// diagonal (Dulmage–Mendelsohn style preprocessing).
func ZeroFreeDiagonal(m *Matrix) Permutation {
	return order.ZeroFreeDiagonal(m.csr)
}

// PermuteSym applies p symmetrically: result = P·A·Pᵀ. It panics if
// p is not a permutation of m's rows.
func PermuteSym(m *Matrix, p Permutation) *Matrix {
	return &Matrix{csr: sparse.PermuteSym(m.csr, p, 0)}
}

// PermuteRows reorders only the rows of m by p. It panics if p is
// not a permutation of m's rows.
func PermuteRows(m *Matrix, p Permutation) *Matrix {
	return &Matrix{csr: sparse.PermuteRows(m.csr, p)}
}

// LowerMethod selects the lower-stage algorithm.
type LowerMethod = core.LowerMethod

// Lower-stage methods. ER and SR both eliminate each lower row in one
// pass and differ only in how a row sums its MILU compensation, so
// without MILU they give the same factor.
const (
	LowerAuto = core.LowerAuto
	// LowerER (Even-Rows) sums a lower row's MILU compensation in one
	// run.
	LowerER = core.LowerER
	// LowerSR (Segmented-Rows) sums it one upper level (one segment)
	// at a time.
	LowerSR   = core.LowerSR
	LowerNone = core.LowerNone
)

// Options configures Factorize; see core.Options for field semantics.
type Options = core.Options

// DefaultOptions returns the paper-default configuration: ILU(0),
// automatic SR/ER selection, A=16 split. Levels are always computed
// on lower(A+Aᵀ).
func DefaultOptions() Options { return core.DefaultOptions() }

// Preconditioner is a factorized Javelin ILU ready to apply.
type Preconditioner struct {
	e *core.Engine
}

// Factorize computes the Javelin incomplete factorization of m.
func Factorize(m *Matrix, opt Options) (*Preconditioner, error) {
	if m == nil || m.csr == nil {
		return nil, errors.New("javelin: nil matrix")
	}
	e, err := core.Factorize(m.csr, opt)
	if err != nil {
		return nil, err
	}
	return &Preconditioner{e: e}, nil
}

// Apply computes z ≈ A⁻¹·r (one ILU preconditioner application) in
// the user's row ordering.
//
// Apply is safe for concurrent use: each call draws a solve context
// from the engine's pool for its own duration and runs entirely on the
// factor-value epoch current at its entry, so concurrent Apply calls
// and a concurrent Refactorize never interfere. A goroutine applying
// in a loop can hold its own NewApplier instead and skip the pool
// round trip; ApplyBatch lives on Applier.
func (p *Preconditioner) Apply(r, z []float64) {
	c := p.e.AcquireContext()
	defer p.e.ReleaseContext(c)
	c.Apply(r, z)
}

// Applier is an independent application context over a shared
// Preconditioner: it holds the per-caller scratch and level-schedule
// progress state, while the factorization itself stays shared and
// read-only. Create one per goroutine with NewApplier; a single
// Applier must not be used from two goroutines at once. An Applier
// remains valid across Refactorize, and Refactorize may run
// concurrently with its applications: each Apply/ApplyBatch call runs
// entirely on the factor-value epoch current at its entry and the
// next call picks up newly published values.
type Applier struct {
	ctx *core.SolveContext
}

// NewApplier creates an independent applier over the shared
// factorization (cheap: one length-N vector plus progress counters).
func (p *Preconditioner) NewApplier() *Applier {
	return &Applier{ctx: p.e.NewContext()}
}

// Apply computes z ≈ A⁻¹·r in the user's row ordering. Safe to call
// concurrently with other Appliers over the same Preconditioner.
//
//javelin:noalloc
func (a *Applier) Apply(r, z []float64) { a.ctx.Apply(r, z) }

// ApplyBatch applies the preconditioner to k right-hand sides at
// once: Z[j] ≈ A⁻¹·R[j]. The factor is traversed once per row with
// the update applied to all k vectors, so one level-schedule sweep is
// amortized over the whole batch — substantially cheaper than k Apply
// calls. The packed n×k block stays with the Applier across calls.
// Safe to call concurrently with other Appliers over the same
// Preconditioner.
//
//javelin:noalloc
func (a *Applier) ApplyBatch(R, Z [][]float64) { a.ctx.ApplyBatch(R, Z) }

// ErrPatternMismatch is wrapped by Refactorize errors when the new
// matrix carries an entry outside the factorized sparsity pattern.
// Dropping such an entry silently would compute the preconditioner of
// a different matrix with no signal; callers that legitimately feed
// off-pattern matrices (τ-dropped refactorization) set
// Options.AllowPatternMismatch to restore the dropping behavior.
var ErrPatternMismatch = core.ErrPatternMismatch

// Refactorize reuses the symbolic structure on new values (same
// pattern): the new matrix is scattered and factored into an inactive
// value buffer and published atomically, so it is safe to call while
// any number of solves — Solver.Solve calls, Applier applications —
// are in flight, and it never waits for them. In-flight solves finish
// on the consistent snapshot they started with; subsequent solves see
// the new values. Concurrent Refactorize calls serialize internally.
//
// Entries of m outside the factorized pattern fail with an error
// wrapping ErrPatternMismatch (unless Options.AllowPatternMismatch).
// A factor row that overflows to a NaN or ±Inf (a tiny pivot under
// huge couplings, all input finite) fails with ErrNonFinite, naming
// the row, as it does in Factorize. On any error the previous factor
// values remain published and solve traffic continues on them.
//
// Callers refactorizing by hand after every value change should
// consider the versioned path instead: publish updates through
// VersionedMatrix.UpdateValues and let a NewVersionedSolver with
// WithAutoRefactorize decide when the factor has drifted enough to be
// worth rebuilding — each solve then pins one consistent (A-epoch,
// factor-epoch) pair, and mild drift costs no refactorization at all
// (see doc.go, "Live updates & drift policy"). Direct Refactorize
// remains the right tool when the caller knows the factor must be
// refreshed (e.g. a large discrete parameter change).
func (p *Preconditioner) Refactorize(m *Matrix) error { return p.e.Refactorize(m.csr) }

// Method reports the lower-stage method Javelin selected.
func (p *Preconditioner) Method() LowerMethod { return p.e.Method() }

// NUpper returns the number of rows factored by the level-scheduled
// upper stage; N−NUpper rows went to the lower stage.
func (p *Preconditioner) NUpper() int { return p.e.Split().NUpper }

// NumLevels returns the number of level sets found.
func (p *Preconditioner) NumLevels() int { return p.e.Split().Lv.Count }

// Close releases worker resources (idempotent).
func (p *Preconditioner) Close() { p.e.Close() }

// Engine exposes the underlying engine for benchmarking and advanced
// use; treat as read-only.
func (p *Preconditioner) Engine() *core.Engine { return p.e }

// SolverStats reports iterations and convergence of one Solve.
type SolverStats = krylov.Stats
