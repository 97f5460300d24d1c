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

// factorInto scatters a into vals and factors it there as one build
// pass: the scatter, then every numeric stage as one exec.Runtime.Phases
// region over the engine's factor plan. One cost-model call per pass
// caps the region at Threads lanes, or at 1, which runs every piece in
// order on the caller. Rows of one level, one span or one corner group
// are independent, so both give the same bits.
func (e *Engine) factorInto(vals []float64, a *sparse.CSR) error {
	b := &build{e: e, vals: vals, lanes: newLanes(e.opt.Threads, e.n, e.maxRow)}
	if err := b.scatter(a); err != nil {
		return err
	}
	maxPar := 1
	if e.rt.ParallelWorth(e.factorOps) {
		maxPar = e.opt.Threads
	}
	e.rt.Phases(e.plan.gate, maxPar, b.piece)
	return b.firstErr()
}

// build is one numeric factorization pass (Factorize or Refactorize):
// the epoch buffer being filled, one elimination lane per thread and
// the first error. It is allocated per call and dropped on return, so
// the Engine keeps no numeric scratch, and a pass allocates the same
// few objects whatever its number of rows or levels.
type build struct {
	e     *Engine
	vals  []float64
	lanes []lane
	err   atomic.Pointer[error]
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

// factorPlan is the piece plan of a pass's factor region, built once
// by Factorize. Its pieces are, in order: the upper stage, each level
// cut into up to 4·Threads row ranges, levels ascending (piece i
// covers rows [cut[i], cut[i+1])); one piece per lower row in
// lower.spans; and one piece per corner row, ascending. gate holds
// each piece's Phases gate: an upper piece waits for the levels before
// its own (Anderson & Saad's level scheduling), a span for the whole
// upper stage, and a corner row for every span and for the corner
// groups before its own (LowerLvlPtr). A lane that never starts holds
// no piece, so the caller can finish a pass alone.
type factorPlan struct {
	cut  []int
	gate []int32
}

// newFactorPlan builds the factor plan; the lower plan must exist.
func (e *Engine) newFactorPlan() *factorPlan {
	spans := len(e.lower.spans)
	cut, up := e.cutLevels(4 * e.opt.Threads)
	gate := append(make([]int32, 0, len(up)+spans+e.n-e.split.NUpper), up...)
	upper := int32(len(up))
	for range spans {
		gate = append(gate, upper)
	}
	ptr := e.split.LowerLvlPtr
	for g := 0; g+1 < len(ptr); g++ {
		for range ptr[g+1] - ptr[g] {
			gate = append(gate, upper+int32(spans+ptr[g]))
		}
	}
	return &factorPlan{cut: cut, gate: gate}
}

// piece runs piece i of the factor plan on the given lane's scratch.
// After the pass has failed it returns at once: the region only
// drains.
func (b *build) piece(lane, i int) {
	if b.err.Load() != nil {
		return
	}
	e, ln := b.e, &b.lanes[lane]
	var err error
	if up := len(e.plan.cut) - 1; i < up {
		err = b.upperRows(ln, e.plan.cut[i], e.plan.cut[i+1])
	} else if i -= up; i < len(e.lower.spans) {
		err = b.lowerRow(ln, i)
	} else {
		err = b.cornerRow(ln, e.split.NUpper+i-len(e.lower.spans))
	}
	if err != nil {
		b.fail(err)
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

// upperRows factors the rows [lo, hi) of one upper level. Each row is
// fully eliminated (its pivots are rows of earlier levels) and
// finished.
func (b *build) upperRows(ln *lane, lo, hi int) error {
	e := b.e
	lu, diag := e.factor.LU, e.factor.DiagPos
	for r := lo; r < hi; r++ {
		comp, err := ln.eliminate(e.factor, b.vals, r, lu.RowPtr[r], diag[r], nil)
		if err == nil {
			err = e.finishRow(b.vals, r, comp)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// lowerRow eliminates the row of span i against all its upper-stage
// pivots in one pass (paper Section V). ER and SR differ only in the
// order the row's MILU compensation is summed in (lowerPlan.lvlEnds);
// it waits in lower.comp for the row's corner piece.
func (b *build) lowerRow(ln *lane, i int) error {
	e := b.e
	sp := e.lower.spans[i]
	comp, err := ln.eliminate(e.factor, b.vals, sp.row, sp.kLo, sp.kHi, e.lower.lvlEnds)
	if err != nil {
		return err
	}
	e.lower.comp[sp.row-e.split.NUpper] = comp
	return nil
}

// cornerRow eliminates corner row r against its corner pivots (columns
// in [NUpper, r), whose rows are final) and finishes it with the
// compensation its upper-stage pivots left in lower.comp. Rows of one
// corner group (one original level) are independent under the
// lower(A+Aᵀ) order.
func (b *build) cornerRow(ln *lane, r int) error {
	e := b.e
	i := r - e.split.NUpper
	comp, err := ln.eliminate(e.factor, b.vals, r, e.cornerStart[i], e.factor.DiagPos[r], nil)
	if err != nil {
		return err
	}
	return e.finishRow(b.vals, r, comp+e.lower.comp[i])
}
