package core

import (
	"errors"
	"fmt"
	"math"
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
	if err := e.scatter(a, vals); err != nil {
		e.vals.Recycle(vals)
		return err
	}
	if e.lower != nil {
		for i := range e.lower.comp {
			e.lower.comp[i] = 0
		}
	}
	err := e.factorUpper(vals)
	if err == nil {
		switch e.method {
		case LowerNone:
			// nothing: no lower rows
		case LowerER:
			err = e.factorLowerER(vals)
		case LowerSR:
			err = e.factorLowerSR(vals)
		default:
			err = fmt.Errorf("core: unresolved lower method %v", e.method)
		}
	}
	if err != nil {
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

// scatter copies a's values into the epoch build buffer on the
// permuted factor pattern in parallel (the paper's copy-with-
// first-touch step). It rejects two kinds of input, reporting the
// first bad entry it meets:
//   - a NaN or ±Inf value (sparse.ErrNonFinite): factoring it would
//     publish a poisoned factor that every later solve fails on;
//   - an entry of a absent from the pattern (ErrPatternMismatch):
//     scattering would silently drop it and the factorization would
//     condemn a different matrix than the caller passed, unless
//     Options.AllowPatternMismatch permits dropping
//     (τ-refactorization).
func (e *Engine) scatter(a *sparse.CSR, vals []float64) error {
	lu := e.factor.LU
	perm := e.split.Perm
	inv := e.invPerm
	allow := e.opt.AllowPatternMismatch
	var bad atomic.Value
	rowBody := func(newI int) {
		lo, hi := lu.RowPtr[newI], lu.RowPtr[newI+1]
		for k := lo; k < hi; k++ {
			vals[k] = 0
		}
		lcols := lu.ColIdx[lo:hi]
		oldI := perm[newI]
		cols, avals := a.Row(oldI)
		for k, j := range cols {
			x := avals[k]
			// Only the first bad entry is reported; a genuinely changed
			// pattern can have millions, and building an error per
			// entry would make the failure path itself expensive.
			if x-x != 0 { // NaN or ±Inf
				if bad.Load() == nil {
					bad.CompareAndSwap(nil, fmt.Errorf(
						"core: %w %g at entry (%d,%d) of the factorization input", sparse.ErrNonFinite, x, oldI, j)) //nolint:errcheck
				}
			} else if p := searchRow(lcols, inv[j]); p >= 0 {
				vals[lo+p] = x
			} else if !allow && bad.Load() == nil {
				bad.CompareAndSwap(nil, fmt.Errorf(
					"%w: entry (%d,%d) of the refactorization input", ErrPatternMismatch, oldI, j)) //nolint:errcheck
			}
		}
	}
	// ~4 ops per pattern entry (zero + binary-search copy); below the
	// cutoff the region is pure overhead and the rows run inline.
	if pieces := e.rt.PiecesFor(4*int64(lu.Nnz()), e.opt.Threads); pieces <= 1 {
		for newI := 0; newI < e.n; newI++ {
			rowBody(newI)
		}
	} else {
		e.rt.For(e.n, pieces, rowBody)
	}
	if v := bad.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// factorUpper runs the upper stage: up-looking elimination of rows
// [0, NUpper) driven by the p2p schedule. Each row is fully
// eliminated (its dependencies are all upper rows) and finished.
func (e *Engine) factorUpper(vals []float64) error {
	var firstErr atomic.Value
	rowBody := func(r int) {
		comp, err := eliminatePivots(e.factor, vals, r, 0, r)
		if err == nil {
			err = e.finishRow(vals, r, comp)
		}
		if err != nil {
			// Record the first error; later rows may divide by a bad
			// pivot but the factorization is already condemned.
			firstErr.CompareAndSwap(nil, err) //nolint:errcheck
		}
	}
	// Below the cutoff, walk the scheduled rows inline in ascending
	// order — a valid forward topological order, so every row sees
	// exactly the finished dependencies the p2p sweep would have given
	// it and the factor values are bitwise identical.
	if e.rt.ParallelWorth(e.upperOps) {
		e.schedL.Run(rowBody)
	} else {
		for r := 0; r < e.split.NUpper; r++ {
			rowBody(r)
		}
	}
	if v := firstErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// factorLowerER is the Even-Rows method (paper Fig. 7/8): phase 1
// eliminates, for every lower row in parallel, the pivot columns that
// live in the upper stage (those rows are final); phase 2 factors the
// corner serially in ascending row order, preserving exact up-looking
// arithmetic order.
func (e *Engine) factorLowerER(vals []float64) error {
	nUp, n := e.split.NUpper, e.n
	nLower := n - nUp
	if nLower == 0 {
		return nil
	}
	var firstErr atomic.Value
	comps := e.lower.comp
	// Phase 1: FACTOR_L — dynamic schedule, chunk 1 (the paper's
	// OpenMP DYNAMIC/CHUNK_SIZE=1 configuration); inline below the
	// cutoff (rows are independent, so the results are identical).
	phase1 := func(i int) {
		r := nUp + i
		comp, err := eliminatePivots(e.factor, vals, r, 0, nUp)
		if err != nil {
			firstErr.CompareAndSwap(nil, err) //nolint:errcheck
			return
		}
		comps[i] = comp
	}
	if e.rt.ParallelWorth(e.lowerOps) {
		e.rt.ForDynamic(nLower, e.opt.Threads, 1, phase1)
	} else {
		for i := 0; i < nLower; i++ {
			phase1(i)
		}
	}
	if v := firstErr.Load(); v != nil {
		return v.(error)
	}
	// Phase 2: FACTOR_LU on the corner, serial.
	for r := nUp; r < n; r++ {
		comp, err := eliminatePivots(e.factor, vals, r, nUp, r)
		if err != nil {
			return err
		}
		if err := e.finishRow(vals, r, comp+comps[r-nUp]); err != nil {
			return err
		}
	}
	return nil
}

// factorLowerSR is the Segmented-Rows method (paper Fig. 5/6). Lower
// rows' sub-diagonal entries are grouped into subblocks by the upper
// level of their column; within a level the columns are independent
// (guaranteed by the lower(A+Aᵀ) level order), so each level is
// processed as DIVIDE tiles followed by row-partitioned UPDATE tiles,
// each a dynamic region on the runtime, and finally the corner is
// factored level-group by level-group (or serially under
// Options.SerialCorner).
func (e *Engine) factorLowerSR(vals []float64) error {
	lp := e.lower
	if lp == nil || e.split.NLower() == 0 {
		return nil
	}
	lu := e.factor.LU
	var firstErr atomic.Value
	recordErr := func(err error) {
		firstErr.CompareAndSwap(nil, err) //nolint:errcheck
	}
	// Tiles are row-disjoint, so the inline route below the cutoff is
	// bitwise identical to the dynamic dispatch.
	par := e.rt.ParallelWorth(e.lowerOps)

	for li := range lp.srLevels {
		lvl := &lp.srLevels[li]
		if len(lvl.spans) == 0 {
			continue
		}
		// DIVIDE_COLUMNS: val[k] /= U[j,j] for each entry in the level.
		e.runTiles(par, lvl.divTiles, func(t tileRange) {
			for si := t.lo; si < t.hi; si++ {
				sp := lvl.spans[si]
				for k := sp.kLo; k < sp.kHi; k++ {
					j := lu.ColIdx[k]
					piv := vals[e.factor.DiagPos[j]]
					if !(math.Abs(piv) >= pivotFloor) {
						recordErr(fmt.Errorf("core: SR zero pivot at column %d", j))
						return
					}
					vals[k] /= piv
				}
			}
		})
		if v := firstErr.Load(); v != nil {
			return v.(error)
		}
		// UPDATE_BLOCK: for each span (one row's entries in this
		// level), apply the merge updates into that row. Spans are
		// row-disjoint, so tiles can run concurrently.
		e.runTiles(par, lvl.updTiles, func(t tileRange) {
			for si := t.lo; si < t.hi; si++ {
				sp := lvl.spans[si]
				comp := applyUpdates(e, vals, sp)
				if e.opt.Modified {
					e.lower.comp[sp.row-e.split.NUpper] += comp
				}
			}
		})
	}

	// FACTOR_LU on the corner.
	return e.factorCorner(vals)
}

// applyUpdates subtracts, for each already-divided pivot entry in the
// span, lij × U-row(j) from row sp.row (merge walk), mirroring the
// second half of eliminatePivots.
func applyUpdates(e *Engine, vals []float64, sp rowSpan) (comp float64) {
	lu := e.factor.LU
	hi := lu.RowPtr[sp.row+1]
	for k := sp.kLo; k < sp.kHi; k++ {
		j := lu.ColIdx[k]
		lij := vals[k]
		kk := e.factor.DiagPos[j] + 1
		ujEnd := lu.RowPtr[j+1]
		k2 := k + 1
		for kk < ujEnd {
			uc := lu.ColIdx[kk]
			for k2 < hi && lu.ColIdx[k2] < uc {
				k2++
			}
			if k2 < hi && lu.ColIdx[k2] == uc {
				vals[k2] -= lij * vals[kk]
				k2++
			} else {
				comp -= lij * vals[kk]
			}
			kk++
		}
	}
	return comp
}

// factorCorner factors the trailing (lower × lower) block. Rows are
// grouped by their original level; rows within a group are mutually
// independent under the lower(A+Aᵀ) order, so each group runs in
// parallel with a barrier between groups — unless SerialCorner.
func (e *Engine) factorCorner(vals []float64) error {
	nUp, n := e.split.NUpper, e.n
	// Serial ascending order equals groups-ascending with independent
	// rows inside each group, so the cutoff's serial route is bitwise
	// identical to the group-parallel one.
	if e.opt.SerialCorner || e.split.NumLowerLevels() <= 1 && n-nUp <= 64 ||
		!e.rt.ParallelWorth(e.lowerOps) {
		for r := nUp; r < n; r++ {
			comp, err := eliminatePivots(e.factor, vals, r, nUp, r)
			if err != nil {
				return err
			}
			if err := e.finishRow(vals, r, comp+e.lower.comp[r-nUp]); err != nil {
				return err
			}
		}
		return nil
	}
	var firstErr atomic.Value
	for g := 0; g < e.split.NumLowerLevels(); g++ {
		lo := nUp + e.split.LowerLvlPtr[g]
		hi := nUp + e.split.LowerLvlPtr[g+1]
		e.rt.ForDynamic(hi-lo, e.opt.Threads, 1, func(i int) {
			r := lo + i
			comp, err := eliminatePivots(e.factor, vals, r, nUp, r)
			if err == nil {
				err = e.finishRow(vals, r, comp+e.lower.comp[r-nUp])
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, err) //nolint:errcheck
			}
		})
		if v := firstErr.Load(); v != nil {
			return v.(error)
		}
	}
	return nil
}

// runTiles runs body once per tile. With par set, more than one tile
// and more than one thread, the tiles are a chunk-1 ForDynamic region
// (the schedule ER phase 1 uses); otherwise they are walked inline in
// order. Tiles are row-disjoint, so bodies never race and both routes
// give bitwise-identical results.
func (e *Engine) runTiles(par bool, tiles []tileRange, body func(tileRange)) {
	if !par || len(tiles) <= 1 || e.opt.Threads == 1 {
		for _, t := range tiles {
			body(t)
		}
		return
	}
	e.rt.ForDynamic(len(tiles), e.opt.Threads, 1, func(i int) { body(tiles[i]) })
}
