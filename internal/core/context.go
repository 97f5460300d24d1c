package core

import (
	"sync/atomic"

	"javelin/internal/epoch"
)

// SolveContext holds the per-caller mutable state of the triangular
// solves: permutation scratch, batch blocks and the pinned
// factor-value epoch.
// The engine's symbolic state is immutable during solves, so any
// number of goroutines may apply one shared Engine concurrently as
// long as each uses its own SolveContext (create one per goroutine
// with NewContext, or draw one per call with AcquireContext). A
// single SolveContext must not be used from two goroutines at once.
//
// Epoch semantics: every solve reads factor values from an epoch
// snapshot, so Refactorize may run concurrently with any context's
// solves. A context from AcquireContext pins the then-current epoch
// for its whole acquire→release window — every solve through it sees
// one consistent generation, which is what gives a Krylov solve a
// fixed preconditioner even while Refactorize publishes new values
// mid-solve. A context from NewContext pins per call instead: each
// top-level Apply/Solve* runs entirely on the epoch current at its
// entry and picks up newer values on the next call.
//
// Per-call pinning means a SEQUENCE of standalone calls — the
// classic SolveLower-then-SolveUpper pair — can straddle a publish
// and combine L from one generation with U from another. Apply and
// ApplyBatch are immune (one call, one pin); callers issuing the
// pair themselves while Refactorize may run concurrently should use
// an acquired context.
type SolveContext struct {
	e *Engine

	// ep/vals is the pinned value epoch all kernels read. An acquired
	// context holds its pin from AcquireContext to ReleaseContext;
	// otherwise enter/exit pin around each top-level solve, with depth
	// tracking re-entrancy (Apply calls SolveLower/SolveUpper).
	ep       *epoch.Epoch[[]float64]
	vals     []float64
	acquired bool
	depth    int

	tmp1 []float64 // Apply permutation scratch (solves run in place on it)
	blk  []float64 // packed n×k batch scratch (lazily grown)

	// x is the vector of the phased sweep in flight, and forward and
	// backward are its region bodies, bound once here so a solve
	// allocates no closure (see Engine.route). joined records whether
	// a lane other than the caller's ran a piece of the forward sweep.
	x                 []float64
	forward, backward func(lane, i int)
	joined            atomic.Bool
}

// retainedBlkRHS caps the batch scratch a released context keeps: a
// context that served an n×k ApplyBatch would otherwise pin its n×k
// block in the engine's pool forever, so ReleaseContext drops blk
// when its capacity exceeds retainedBlkRHS right-hand sides' worth.
const retainedBlkRHS = 4

// enter pins the current epoch for a top-level solve on an unpinned
// context (a no-op at re-entrant depth or under an acquire-held pin).
func (c *SolveContext) enter() {
	if c.depth == 0 && c.ep == nil {
		c.ep = c.e.vals.Pin()
		c.vals = c.ep.Vals()
	}
	c.depth++
}

// exit unwinds enter, releasing a per-call pin when the outermost
// solve completes.
func (c *SolveContext) exit() {
	c.depth--
	if c.depth == 0 && !c.acquired {
		c.e.vals.Unpin(c.ep)
		c.ep, c.vals = nil, nil
	}
}

// NewContext creates an independent solve context over the engine.
// Contexts are cheap (one length-N vector) and
// reusable across any number of solves; each solve call reads the
// factor values current at its entry.
func (e *Engine) NewContext() *SolveContext {
	c := &SolveContext{e: e, tmp1: make([]float64, e.n)}
	c.forward, c.backward = c.forwardPiece, c.backwardPiece
	return c
}

// AcquireContext returns a SolveContext drawn from the engine's
// internal pool, creating one only when the pool is empty. Paired
// with ReleaseContext it lets per-call entry points (one acquire per
// solve) reuse contexts across any number of concurrent callers
// without allocating once the pool is warm. The returned context is
// exclusively the caller's until released, and is pinned to the
// factor-value epoch current at the acquire: every solve through it
// uses that one consistent snapshot even if Refactorize publishes new
// values meanwhile.
func (e *Engine) AcquireContext() *SolveContext {
	c, ok := e.ctxPool.Get().(*SolveContext)
	if !ok {
		//javelin:alloc-ok pool miss: allocates a context only until the pool holds one per concurrent solve
		c = e.NewContext()
	}
	c.ep = e.vals.Pin()
	c.vals = c.ep.Vals()
	c.acquired = true
	return c
}

// ReleaseContext returns an acquired context to the engine's pool,
// unpinning its epoch (which lets a drained old generation's buffer
// recycle) and dropping oversized batch scratch so one large
// ApplyBatch does not pin an n×k block in the pool forever. The
// context must not be used after release. Contexts belonging to a
// different engine are dropped rather than pooled (a foreign context
// would solve with the wrong factor).
func (e *Engine) ReleaseContext(c *SolveContext) {
	if c == nil {
		return
	}
	// Unpin against the context's OWN engine even on a foreign
	// release: dropping the context without draining its pin would
	// strand the pinned epoch's buffer in the owner's retired list
	// forever.
	if c.ep != nil {
		c.e.vals.Unpin(c.ep)
		c.ep, c.vals = nil, nil
	}
	c.acquired = false
	c.depth = 0
	if c.e != e {
		return // foreign context: released, but never pooled here
	}
	if cap(c.blk) > retainedBlkRHS*e.n {
		c.blk = nil
	}
	e.ctxPool.Put(c)
}

// Engine returns the engine this context applies.
func (c *SolveContext) Engine() *Engine { return c.e }

// FactorEpoch returns the sequence number of the factor-value epoch
// this context currently holds pinned, or 0 when no pin is held (a
// per-call context between solves). On a context from AcquireContext
// it identifies the factor generation every solve in the
// acquire→release window reads.
func (c *SolveContext) FactorEpoch() uint64 {
	if c.ep == nil {
		return 0
	}
	return c.ep.Seq()
}

// Apply applies the preconditioner in USER ordering: z ≈ A⁻¹ r via
// z = P⁻¹ U⁻¹ L⁻¹ P r. r and z must have length N and may alias.
//
//javelin:noalloc
func (c *SolveContext) Apply(r, z []float64) {
	c.enter()
	defer c.exit()
	perm, kt := c.e.split.Perm, c.e.kt
	kt.GatherPerm(perm, r, c.tmp1)
	c.SolveLower(c.tmp1, c.tmp1)
	c.SolveUpper(c.tmp1, c.tmp1)
	kt.ScatterPerm(perm, c.tmp1, z)
}

// ensureBlk grows the packed batch scratch to at least size entries.
//
//javelin:alloc-ok amortized growth: allocates only until blk reaches the largest batch seen
func (c *SolveContext) ensureBlk(size int) []float64 {
	if cap(c.blk) < size {
		c.blk = make([]float64, size)
	}
	return c.blk[:size]
}

// ApplyBatch applies the preconditioner to k right-hand sides at
// once: Z[j] ≈ A⁻¹·R[j] for each j, in USER ordering. All vectors
// must have length N; R[j] and Z[j] may alias.
//
// The batch is packed into an n×k row-major block so each sweep
// traverses RowPtr/ColIdx once per row and applies the update to all
// k right-hand sides from one cache-resident factor row — one sweep
// amortized over the whole batch, which is what makes the solve
// scale like an spmv (paper Section VI's co-design point). Both block
// sweeps run each column through TriLower's and TriUpper's
// arithmetic, so Z[j] equals Apply(R[j]) bit for bit.
//
//javelin:noalloc
func (c *SolveContext) ApplyBatch(R, Z [][]float64) {
	k := len(R)
	if k != len(Z) {
		panic("core: ApplyBatch len(R) != len(Z)")
	}
	if k == 0 {
		return
	}
	if k == 1 {
		c.Apply(R[0], Z[0])
		return
	}
	c.enter()
	defer c.exit()
	n := c.e.n
	xb := c.ensureBlk(n * k)
	perm := c.e.split.Perm
	for i := 0; i < n; i++ {
		oi := perm[i]
		dst := xb[i*k : i*k+k]
		for j := range dst {
			dst[j] = R[j][oi]
		}
	}
	c.solveLowerBlock(xb, k)
	c.solveUpperBlock(xb, k)
	for i := 0; i < n; i++ {
		oi := perm[i]
		src := xb[i*k : i*k+k]
		for j := range src {
			Z[j][oi] = src[j]
		}
	}
}

// solveLowerBlock is the batched forward substitution on the packed
// n×k block xb (xb[i*k+j] is entry i of right-hand side j): one
// ascending sweep on the calling goroutine that applies each row's
// sub-diagonal entries to all k columns through the dense-panel
// micro-kernel. PanelUpdate subtracts a row's entries one by one in
// TriLower's order, so each column gets SolveLower's bits, at every
// thread count.
//
//javelin:noalloc
func (c *SolveContext) solveLowerBlock(xb []float64, k int) {
	e := c.e
	lu := e.factor.LU
	vals := c.vals
	for r := 0; r < e.n; r++ {
		lo, dp := lu.RowPtr[r], e.factor.DiagPos[r]
		e.kt.PanelUpdate(xb, k, xb[r*k:r*k+k], vals, lu.ColIdx, lo, dp)
	}
}

// solveUpperBlock is the batched backward substitution on the packed
// n×k block, mirroring SolveUpper: one descending sweep on the
// calling goroutine that applies each row's super-diagonal entries to
// all k columns through PanelUpdate and then divides each column by
// the pivot, as TriUpper does, so each column gets SolveUpper's bits.
//
//javelin:noalloc
func (c *SolveContext) solveUpperBlock(xb []float64, k int) {
	e := c.e
	lu := e.factor.LU
	vals := c.vals
	for r := e.n - 1; r >= 0; r-- {
		dp := e.factor.DiagPos[r]
		xr := xb[r*k : r*k+k]
		e.kt.PanelUpdate(xb, k, xr, vals, lu.ColIdx, dp+1, lu.RowPtr[r+1])
		d := vals[dp]
		for j := range xr {
			xr[j] /= d
		}
	}
}
