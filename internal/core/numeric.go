package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"javelin/internal/ilu"
	"javelin/internal/sparse"
)

// ErrPatternMismatch is returned (wrapped, with the offending entry's
// user-ordering coordinates) when Refactorize is given a matrix with
// an entry outside the factorized pattern. Set
// Options.AllowPatternMismatch to opt out for τ-dropped
// refactorization workflows.
var ErrPatternMismatch = ilu.ErrPatternMismatch

// Refactorize re-runs the numeric factorization on fresh values from
// a (same pattern as the matrix originally factorized), reusing every
// symbolic structure — the common case for time-stepping applications
// where the preconditioner is rebuilt but the pattern is fixed.
//
// Refactorize is safe to call concurrently with any number of
// in-flight solves and never waits for them: the new values are
// scattered and factored into an inactive epoch buffer and published
// with one atomic swap. Solves already in flight complete on the
// consistent snapshot they pinned at entry; solves that begin after
// Refactorize returns see the new values. Concurrent Refactorize
// calls serialize against each other.
//
// Entries of a that fall outside the factorized pattern fail with an
// error wrapping ErrPatternMismatch unless Options.AllowPatternMismatch
// was set. On any error the previously published factor remains
// current and intact, so solve traffic continues on the last good
// values.
func (e *Engine) Refactorize(a *sparse.CSR) error {
	if err := e.refactorize(a); err != nil {
		e.refacFails.Add(1)
		return err
	}
	return nil
}

func (e *Engine) refactorize(a *sparse.CSR) error {
	if a.N != e.n || a.M != e.n {
		return errors.New("core: Refactorize dimension mismatch")
	}
	e.refacMu.Lock()
	defer e.refacMu.Unlock()
	vals := e.vals.Grab(e.newValues)
	if err := e.factorInto(vals, a); err != nil {
		e.vals.Recycle(vals)
		return err
	}
	e.vals.Publish(vals)
	// Engine.Factor() exposes the newest generation to sequential
	// inspection.
	e.factor.LU.Val = vals
	return nil
}

// newValues is the Grab fallback when no retired buffer has drained:
// the factor skeleton's own array before the first publication, a
// fresh allocation after it (every retired buffer is still pinned by
// an in-flight solve, and Refactorize never waits for readers).
func (e *Engine) newValues() []float64 {
	if e.vals.Seq() == 0 {
		return e.factor.LU.Val
	}
	return make([]float64, len(e.factor.LU.Val))
}

// factorInto scatters a into vals and factors it there, stage by
// stage, as one build pass.
func (e *Engine) factorInto(vals []float64, a *sparse.CSR) error {
	b := e.newBuild(vals)
	if err := b.scatter(a); err != nil {
		return err
	}
	if err := b.factorUpper(); err != nil {
		return err
	}
	if e.split.NLower() == 0 {
		return nil // LS, or a split that moved no rows down
	}
	return b.factorLower()
}

// build is one numeric factorization pass (Factorize or Refactorize):
// the epoch buffer being filled, one elimination lane per thread, the
// first error, and the chunk-1 loop in flight. It is allocated per
// call and dropped on return, so the Engine keeps no numeric scratch.
// Loop bodies are method expressions and the one claim closure is
// bound here, so a pass allocates the same few objects whatever its
// number of rows or levels.
type build struct {
	e     *Engine
	vals  []float64
	lanes []lane
	err   atomic.Pointer[error]

	// The chunk-1 loop in flight (see forEach): body(b, lane, i) for
	// i in [0, n), claimed off next by one Ranges piece per lane.
	n     int
	next  atomic.Int64
	body  func(b *build, ln *lane, i int)
	claim func(piece, lo, hi int)

	// Loop parameters: the rows [row0, row1) of the upper level being
	// factored in items of blk rows, and row0 again as the first row of
	// the corner group being factored.
	row0, row1 int
	blk        int
}

func (e *Engine) newBuild(vals []float64) *build {
	b := &build{e: e, vals: vals, lanes: newLanes(e.opt.Threads, e.n, e.maxRow)}
	b.claim = b.claimLoop
	return b
}

// fail records err if it is the pass's first error. Rows already
// running still finish, but the pass is condemned.
func (b *build) fail(err error) { b.err.CompareAndSwap(nil, &err) }

func (b *build) firstErr() error {
	if p := b.err.Load(); p != nil {
		return *p
	}
	return nil
}

// forEach runs body(b, lane, i) for i in [0, n). With par set, more
// than one item and more than one lane it is a chunk-1 dynamic loop
// (the paper's OpenMP DYNAMIC/CHUNK_SIZE=1 configuration): one Ranges
// piece per lane, each claiming items off a shared cursor and running
// them on its piece's lane. Otherwise the items run inline, in order,
// on lane 0. Items must be independent (disjoint rows), so both routes
// give bitwise-identical results.
func (b *build) forEach(par bool, n int, body func(b *build, ln *lane, i int)) {
	if !par || n <= 1 || len(b.lanes) == 1 {
		for i := 0; i < n; i++ {
			body(b, &b.lanes[0], i)
		}
		return
	}
	b.n, b.body = n, body
	b.next.Store(0)
	p := min(len(b.lanes), n)
	b.e.rt.Ranges(p, p, b.claim)
}

// claimLoop is one lane's Ranges piece of a forEach loop.
func (b *build) claimLoop(piece, _, _ int) {
	ln := &b.lanes[piece]
	for i := int(b.next.Add(1) - 1); i < b.n; i = int(b.next.Add(1) - 1) {
		b.body(b, ln, i)
	}
}

// scatter copies a's values into the epoch build buffer on the
// permuted factor pattern in parallel (the paper's copy-with-
// first-touch step); each Ranges piece finds an entry's slot through
// its lane's position map. It rejects two kinds of input, reporting
// the first bad entry it meets:
//   - a NaN or ±Inf value (sparse.ErrNonFinite): factoring it would
//     publish a poisoned factor that every later solve fails on;
//   - an entry of a absent from the pattern (ErrPatternMismatch):
//     scattering would silently drop it and the factorization would
//     condemn a different matrix than the caller passed, unless
//     Options.AllowPatternMismatch permits dropping
//     (τ-refactorization).
func (b *build) scatter(a *sparse.CSR) error {
	e, vals := b.e, b.vals
	lu := e.factor.LU
	perm, inv := e.split.Perm, e.invPerm
	allow := e.opt.AllowPatternMismatch
	body := func(piece, lo, hi int) {
		pos := b.lanes[piece].pos
		for newI := lo; newI < hi; newI++ {
			base, end := lu.RowPtr[newI], lu.RowPtr[newI+1]
			lcols := lu.ColIdx[base:end]
			for i, c := range lcols {
				pos[c] = int32(1 + i)
			}
			clear(vals[base:end])
			oldI := perm[newI]
			cols, avals := a.Row(oldI)
			for k, j := range cols {
				x := avals[k]
				// Only the first bad entry is reported; a genuinely
				// changed pattern can have millions, and building an
				// error per entry would make the failure path itself
				// expensive.
				if x-x != 0 { // NaN or ±Inf
					if b.err.Load() == nil {
						b.fail(fmt.Errorf(
							"core: %w %g at entry (%d,%d) of the factorization input", sparse.ErrNonFinite, x, oldI, j))
					}
				} else if p := pos[inv[j]]; p > 0 {
					vals[base+int(p)-1] = x
				} else if !allow && b.err.Load() == nil {
					b.fail(fmt.Errorf(
						"%w: entry (%d,%d) of the refactorization input", ErrPatternMismatch, oldI, j))
				}
			}
			for _, c := range lcols {
				pos[c] = 0
			}
		}
	}
	// ~4 ops per pattern entry (map set and clear, zero, copy); below
	// the cutoff the region is pure overhead and the rows run inline.
	if pieces := e.rt.PiecesFor(4*int64(lu.Nnz()), e.opt.Threads); pieces <= 1 {
		body(0, 0, e.n)
	} else {
		e.rt.Ranges(e.n, pieces, body)
	}
	return b.firstErr()
}

// factorUpper runs the upper stage: up-looking elimination of rows
// [0, NUpper), level by level with a barrier between levels (Anderson
// & Saad's level scheduling). Rows of a level are contiguous and
// independent, so each level is a chunk-1 loop over blocks of about a
// quarter of a lane's share: enough items for lanes to balance uneven
// rows, few enough that claims stay cheap. A lane that never starts
// holds no rows, so the caller can finish every level alone. Below the
// cutoff the blocks run inline in ascending order, every row seeing
// the same finished dependencies, so both routes give the same bits.
func (b *build) factorUpper() error {
	e := b.e
	par := e.rt.ParallelWorth(e.upperOps)
	ptr := e.split.UpperLvlPtr
	for l := 0; l < e.split.CutLevel; l++ {
		b.row0, b.row1 = ptr[l], ptr[l+1]
		rows := b.row1 - b.row0
		b.blk = (rows + 4*len(b.lanes) - 1) / (4 * len(b.lanes))
		b.forEach(par, (rows+b.blk-1)/b.blk, (*build).upperBlock)
		if err := b.firstErr(); err != nil {
			return err
		}
	}
	return nil
}

// upperBlock factors block i of the current upper level. Each row is
// fully eliminated (its pivots are rows of earlier levels) and
// finished.
func (b *build) upperBlock(ln *lane, i int) {
	e := b.e
	lu, diag := e.factor.LU, e.factor.DiagPos
	lo := b.row0 + i*b.blk
	hi := min(lo+b.blk, b.row1)
	for r := lo; r < hi; r++ {
		comp, err := ln.eliminate(e.factor, b.vals, r, lu.RowPtr[r], diag[r], nil)
		if err == nil {
			err = e.finishRow(b.vals, r, comp)
		}
		if err != nil {
			b.fail(err)
			return
		}
	}
}

// factorLower runs the lower stage (paper Section V): a chunk-1 loop
// with one item per lower row, each eliminating the row against all
// its upper-stage pivots in one pass, then the corner. Lower rows are
// independent once the upper stage is final, so the inline route below
// the cutoff is bitwise identical to the dynamic dispatch. ER and SR
// differ only in the order a row's MILU compensation is summed in
// (lowerPlan.lvlEnds).
func (b *build) factorLower() error {
	e := b.e
	b.forEach(e.rt.ParallelWorth(e.lowerOps), len(e.lower.spans), (*build).lowerRow)
	if err := b.firstErr(); err != nil {
		return err
	}
	return b.factorCorner()
}

// lowerRow eliminates the row of span i against its upper-stage
// pivots. Its compensation waits in lower.comp for the row's corner
// phase.
func (b *build) lowerRow(ln *lane, i int) {
	e := b.e
	sp := e.lower.spans[i]
	comp, err := ln.eliminate(e.factor, b.vals, sp.row, sp.kLo, sp.kHi, e.lower.lvlEnds)
	if err != nil {
		b.fail(err)
		return
	}
	e.lower.comp[sp.row-e.split.NUpper] = comp
}

// factorCorner factors the trailing (lower × lower) block. Rows are
// grouped by their original level; rows within a group are mutually
// independent under the lower(A+Aᵀ) order, so each group is a chunk-1
// loop with a barrier between groups.
func (b *build) factorCorner() error {
	e := b.e
	nUp, n := e.split.NUpper, e.n
	// Serial ascending order equals groups-ascending with independent
	// rows inside each group, so the cutoff's serial route is bitwise
	// identical to the group-parallel one.
	if e.split.NumLowerLevels() <= 1 && n-nUp <= 64 ||
		!e.rt.ParallelWorth(e.lowerOps) {
		for r := nUp; r < n; r++ {
			if err := b.cornerRow(&b.lanes[0], r); err != nil {
				return err
			}
		}
		return nil
	}
	ptr := e.split.LowerLvlPtr
	for g := 0; g < e.split.NumLowerLevels(); g++ {
		b.row0 = nUp + ptr[g]
		b.forEach(true, ptr[g+1]-ptr[g], (*build).cornerGroupRow)
		if err := b.firstErr(); err != nil {
			return err
		}
	}
	return nil
}

// cornerGroupRow factors row i of the current corner group.
func (b *build) cornerGroupRow(ln *lane, i int) {
	if err := b.cornerRow(ln, b.row0+i); err != nil {
		b.fail(err)
	}
}

// cornerRow eliminates corner row r against its corner pivots (columns
// in [NUpper, r), whose rows are final) and finishes it with the
// compensation its upper-stage pivots left in lower.comp.
func (b *build) cornerRow(ln *lane, r int) error {
	e := b.e
	i := r - e.split.NUpper
	comp, err := ln.eliminate(e.factor, b.vals, r, e.cornerStart[i], e.factor.DiagPos[r], nil)
	if err != nil {
		return err
	}
	return e.finishRow(b.vals, r, comp+e.lower.comp[i])
}
