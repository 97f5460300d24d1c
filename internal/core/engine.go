// Package core implements the Javelin engine: parallel incomplete LU
// factorization with a level-scheduled upper stage and a
// Segmented-Rows (SR) or Even-Rows (ER) lower stage, co-designed with
// the sparse triangular solves that apply the resulting
// preconditioner (paper Sections III, V, VI).
//
// SR and ER share one lower stage: each lower row is eliminated
// against the finished upper stage in one pass, one piece per row,
// before the shared corner (see build.lowerRow). They differ only in
// how a row's MILU compensation is summed: SR sums it per upper level
// (the paper's segments), ER in one run.
//
// The engine owns the permuted factor, the level-set split and the
// lower-stage plan; the split drives both numeric factorization and
// the solves, which is the paper's central co-design point. Both run
// their levels on one level scheduler, exec.Runtime.Phases: a
// factorization pass is one region after its scatter (see
// factorPlan), a phased solve one region per sweep.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"javelin/internal/epoch"
	"javelin/internal/exec"
	"javelin/internal/ilu"
	"javelin/internal/kernels"
	"javelin/internal/levelset"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// LowerMethod selects the second-stage factorization method.
type LowerMethod int

const (
	// LowerAuto lets Javelin pick between SR and ER from the matrix
	// structure (paper: "Javelin by default will make the choice for
	// the user based on the matrix structure").
	LowerAuto LowerMethod = iota
	// LowerER is the Even-Rows method: the lower rows are eliminated
	// against the upper stage row by row, in parallel.
	LowerER
	// LowerSR is the Segmented-Rows method: the lower rows are
	// eliminated as under ER, but each row's MILU compensation is
	// summed one upper level (one segment) at a time. Without MILU its
	// factor equals ER's.
	LowerSR
	// LowerNone disables the second stage: every level is handled by
	// the level-scheduled upper stage (the paper's "LS").
	LowerNone
)

// String returns the paper's abbreviation.
func (m LowerMethod) String() string {
	switch m {
	case LowerAuto:
		return "Auto"
	case LowerER:
		return "ER"
	case LowerSR:
		return "SR"
	case LowerNone:
		return "LS"
	}
	return "?"
}

// Options configures a Javelin factorization.
type Options struct {
	// FillLevel is k in ILU(k); 0 (the paper's evaluation setting)
	// keeps the pattern of A.
	FillLevel int
	// DropTol is τ in ILU(k,τ); 0 disables dropping.
	DropTol float64
	// Modified enables MILU diagonal compensation.
	Modified bool
	// Threads is the lane count of every parallel region the engine
	// opens; 0 means GOMAXPROCS, and 1 runs every region inline.
	Threads int
	// Lower selects the second-stage method; Factorize rejects a value
	// other than the four LowerMethod constants.
	Lower LowerMethod
	// Split tunes the two-stage partition (Table III's sensitivity
	// parameter A is Split.MinRowsPerLevel).
	Split levelset.SplitOptions
	// AllowPatternMismatch makes Refactorize silently ignore entries
	// of the new matrix that fall outside the factorized pattern
	// instead of failing with ErrPatternMismatch. The documented use
	// is τ-dropped refactorization workflows (ILU(τ)/ILU(k,τ)) where
	// the application legitimately feeds matrices whose sparsity
	// wanders off the factorized pattern and expects the excess mass
	// to be dropped, mirroring internal/ilu.Refactorize. Leave it off
	// for ILU(0)/ILU(k) time-stepping: there, an out-of-pattern entry
	// means the pattern changed and the preconditioner would be
	// silently wrong.
	AllowPatternMismatch bool
	// Runtime, when non-nil, is the shared persistent execution
	// runtime the engine schedules every parallel region on — the
	// factor stages, the scatter and the phased solves. Several engines
	// (and all their SolveContexts) may share one Runtime; the engine
	// does not close it. When nil, the engine creates a private runtime
	// sized to Threads and owns it (Close releases it). Threads is
	// clamped to the runtime's parallelism, the most lanes that can run
	// a stage at once; the clamped value also feeds the ER/SR auto
	// rule.
	Runtime *exec.Runtime
}

// DefaultOptions returns the paper-default configuration: ILU(0),
// automatic lower method, A=16 split.
func DefaultOptions() Options {
	return Options{
		FillLevel: 0,
		Lower:     LowerAuto,
		Split:     levelset.DefaultSplitOptions(),
	}
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		if o.Runtime != nil {
			o.Threads = o.Runtime.Parallelism()
		} else {
			o.Threads = util.MaxThreads()
		}
	}
	if o.Runtime != nil && o.Threads > o.Runtime.Parallelism() {
		o.Threads = o.Runtime.Parallelism()
	}
	return o
}

// Engine is a factorized Javelin preconditioner. It retains the
// symbolic structures so that Refactorize and the triangular solves
// are cheap.
//
// Concurrency contract: the symbolic state — pattern, split, and
// lower-stage plan — is immutable after Factorize. The
// numeric factor values are epoch-versioned: every solve reads from
// the epoch its SolveContext pinned on entry, and Refactorize builds
// the next epoch in a private buffer and publishes it with one atomic
// swap. Consequently Refactorize may run concurrently with any number
// of in-flight solves, without draining them: solves that already
// started complete on their pinned snapshot, and solves that start
// after the publish see the new values. Concurrent Refactorize calls
// serialize against each other internally.
//
// All mutable solve state lives in SolveContext objects, so N
// goroutines may share one Engine by each creating a context with
// NewContext (or drawing one from AcquireContext) and calling its
// Apply / ApplyBatch / SolveLower / SolveUpper. The Engine itself has
// no solve methods.
type Engine struct {
	opt    Options
	n      int
	split  *levelset.Split
	factor *ilu.Factor // on permuted indexing
	method LowerMethod // resolved (never LowerAuto)

	// invPerm caches split.Perm.Inverse() so the per-Refactorize
	// scatter stays allocation-free (the permutation is immutable
	// symbolic state).
	invPerm sparse.Perm

	// kt is the numeric kernel table captured at construction, so a
	// solve never observes a mid-run kernels.Select.
	kt *kernels.Table
	// plan is the factor region's piece plan.
	plan *factorPlan

	// route is the solves' live route state, nil when they can only
	// run inline (see newSolveRoute).
	route *solveRoute

	lower *lowerPlan

	// maxRow is the longest factor row, the size of a lane's row
	// buffer.
	maxRow int

	// rt executes every parallel region of the engine. Owned (and
	// closed by Close) only when Options.Runtime was nil.
	rt        *exec.Runtime
	ownRT     bool
	closeOnce sync.Once

	// vals holds the published factor-value epochs. Solves pin the
	// current one and read values only from that snapshot; Refactorize
	// builds the next generation in a grabbed buffer and publishes it
	// here. The symbolic structures above are shared by every epoch.
	vals epoch.Cell[[]float64]
	// refacMu serializes Refactorize (build + publish) against
	// itself: the build shares the lower-stage compensation scratch
	// and the MILU row sums. It is never taken on a solve path, so
	// factor refreshes and solves proceed concurrently.
	refacMu sync.Mutex
	// refacFails counts Refactorize calls that returned an error and
	// left the previous epoch serving (the drift policy's failure
	// signal).
	refacFails atomic.Uint64

	// ctxPool recycles SolveContexts between Acquire/ReleaseContext
	// pairs so per-call solve entry points (the public Solver) stay
	// allocation-free once warm.
	ctxPool sync.Pool

	rowSumU []float64 // MILU: Σ of each finished U-row (nil unless Modified)
}

// Factorize computes a Javelin incomplete LU of a.
//
// a must be square with a structurally nonzero diagonal (apply the
// order.ZeroFreeDiagonal permutation first if needed). The matrix is
// assumed already preordered by the caller (e.g. ND or RCM); Javelin
// only adds its level-set permutation on top, exactly as in the paper.
// Levels are computed on lower(A+Aᵀ), which keeps the rows of one
// corner group independent.
func Factorize(a *sparse.CSR, opt Options) (*Engine, error) {
	if opt.Lower < LowerAuto || opt.Lower > LowerNone {
		return nil, fmt.Errorf("core: unknown lower method %d", int(opt.Lower))
	}
	opt = opt.withDefaults()
	if a.N != a.M {
		return nil, errors.New("core: matrix must be square")
	}
	if a.N == 0 {
		return nil, errors.New("core: matrix is empty")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	pattern, err := ilu.SymbolicPattern(a, opt.FillLevel)
	if err != nil {
		return nil, err
	}

	var split *levelset.Split
	if opt.Lower == LowerNone {
		split = levelset.NoSplit(pattern, levelset.LowerAAT)
	} else {
		split = levelset.ComputeSplit(pattern, levelset.LowerAAT, opt.Split)
	}

	e := &Engine{
		opt:   opt,
		n:     a.N,
		split: split,
	}
	if opt.Runtime != nil {
		e.rt = opt.Runtime
	} else {
		e.rt = exec.New(opt.Threads)
		e.ownRT = true
	}
	e.method = e.resolveMethod()
	e.invPerm = split.Perm.Inverse()
	permPat := sparse.PermuteSymOn(e.rt, pattern, split.Perm, opt.Threads)

	// Build the factor skeleton on the permuted pattern.
	diagPos := make([]int, a.N)
	for i := 0; i < a.N; i++ {
		dp := -1
		for k := permPat.RowPtr[i]; k < permPat.RowPtr[i+1]; k++ {
			if permPat.ColIdx[k] == i {
				dp = k
				break
			}
		}
		if dp < 0 {
			e.Close()
			return nil, fmt.Errorf("core: row %d lacks a diagonal entry; apply a zero-free-diagonal permutation first", i)
		}
		diagPos[i] = dp
		e.maxRow = max(e.maxRow, permPat.RowPtr[i+1]-permPat.RowPtr[i])
	}
	e.factor = &ilu.Factor{LU: permPat, DiagPos: diagPos}
	if opt.Modified {
		e.rowSumU = make([]float64, a.N)
	}
	e.kt = kernels.Active()

	e.buildLowerPlan()
	e.plan = e.newFactorPlan()

	if err := e.Refactorize(a); err != nil {
		e.Close()
		return nil, err
	}
	e.route = e.newSolveRoute()
	return e, nil
}

// resolveMethod applies the paper's auto rule: ER when there are at
// least twice as many lower rows as threads, SR otherwise. Both
// methods run the same per-row plan, so the rule picks only the order
// a lower row's MILU compensation is summed in; without MILU their
// factors are equal.
func (e *Engine) resolveMethod() LowerMethod {
	m := e.opt.Lower
	if m != LowerAuto {
		return m
	}
	nLower := e.split.NLower()
	if nLower == 0 {
		return LowerNone
	}
	if nLower >= 2*e.opt.Threads {
		return LowerER
	}
	return LowerSR
}

// Method returns the resolved lower-stage method.
func (e *Engine) Method() LowerMethod { return e.method }

// N returns the matrix dimension.
func (e *Engine) N() int { return e.n }

// Factor exposes the permuted factor (read-only use). Its LU.Val
// always tracks the most recently published epoch, which makes it a
// sequential-inspection view: do not read it concurrently with
// Refactorize, and note that a value slice captured from it is only
// guaranteed stable until the second following Refactorize (at which
// point the drained buffer is recycled as a build target).
func (e *Engine) Factor() *ilu.Factor { return e.factor }

// Split exposes the two-stage partition.
func (e *Engine) Split() *levelset.Split { return e.split }

// Perm returns the level-set permutation applied to the input matrix
// (p[new] = old).
func (e *Engine) Perm() sparse.Perm { return e.split.Perm }

// Threads returns the configured worker count.
func (e *Engine) Threads() int { return e.opt.Threads }

// KernelVariant returns the name of the numeric kernel table the
// engine captured at construction (e.g. "go-blocked").
func (e *Engine) KernelVariant() string { return e.kt.Name }

// Runtime returns the execution runtime the engine schedules on
// (shared when Options.Runtime was set, private otherwise).
func (e *Engine) Runtime() *exec.Runtime { return e.rt }

// FactorEpoch returns the sequence number of the currently published
// factor-value epoch: 1 after Factorize, +1 per successful
// Refactorize. Paired with a versioned matrix epoch it identifies the
// (A, factor) generation pair a solve ran against.
func (e *Engine) FactorEpoch() uint64 { return e.vals.Seq() }

// Refactorizes returns the number of successful Refactorize
// publications after the initial factorization.
func (e *Engine) Refactorizes() uint64 { return e.vals.Seq() - 1 }

// RefactorizeFailures returns the number of Refactorize calls that
// failed; each left the previously published epoch serving.
func (e *Engine) RefactorizeFailures() uint64 { return e.refacFails.Load() }

// Close releases the engine's private execution runtime; a shared
// runtime passed via Options.Runtime is left untouched (its owner
// closes it). Close is idempotent and safe for concurrent use.
// Solves issued after Close still complete — the closed
// runtime degrades to caller-driven execution — but should be
// considered a programming error.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.ownRT {
			e.rt.Close()
		}
	})
}
