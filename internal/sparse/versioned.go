package sparse

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"javelin/internal/epoch"
)

// ErrNonFinite is the one sentinel for a NaN or ±Inf value where
// values are published or consumed: NewVersioned and UpdateValues,
// the factorization scatter (Factorize, Refactorize), and a Krylov
// solve's right-hand side. Every error wrapping it names the
// offending entry.
var ErrNonFinite = errors.New("non-finite value")

// Versioned is an epoch-versioned value channel over one immutable
// CSR sparsity pattern: the matrix-side user of the internal/epoch
// primitive that also versions the factor values. The pattern
// (RowPtr/ColIdx) is fixed at construction and shared by every
// generation; each UpdateValues copies the new values into a buffer
// no reader can observe and publishes it with one atomic pointer swap,
// so readers never see a torn mix of old and new values and
// publishers never wait for readers to drain.
//
// Readers pin the current epoch (Vals.Pin), read only that epoch's
// values, and unpin when done. A swapped-out epoch's buffer and header
// recycle once its readers drain, so an update-heavy steady state
// ping-pongs between two value buffers and never allocates.
type Versioned struct {
	n, m   int
	rowPtr []int
	colIdx []int

	// Vals holds the published value epochs. Pin/Unpin on it are the
	// read path; publish only through UpdateValues, which checks the
	// length against the pattern.
	Vals epoch.Cell[[]float64]
	// updates counts published UpdateValues generations (excludes the
	// construction epoch).
	updates atomic.Uint64
}

// ValEpoch is one published generation of matrix values, indexed by
// the owning pattern's RowPtr/ColIdx. Its Vals must not be mutated.
type ValEpoch = epoch.Epoch[[]float64]

// NewVersioned wraps a as an epoch-versioned matrix. The pattern
// arrays are shared with a (immutable by CSR contract); the values
// are copied into the first epoch's private buffer, so later updates
// never scribble over the caller's slice. a must be valid, with
// finite values (else the error wraps ErrNonFinite).
func NewVersioned(a *CSR) (*Versioned, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	v := &Versioned{
		n: a.N, m: a.M,
		rowPtr: a.RowPtr,
		colIdx: a.ColIdx,
	}
	vals := v.newValues()
	if err := v.copyFinite(vals, a.Val); err != nil {
		return nil, err
	}
	v.Vals.Publish(vals)
	return v, nil
}

// N returns the number of rows.
func (v *Versioned) N() int { return v.n }

// M returns the number of columns.
func (v *Versioned) M() int { return v.m }

// Nnz returns the number of stored entries (fixed across epochs).
func (v *Versioned) Nnz() int { return len(v.colIdx) }

// Epoch returns the sequence number of the currently published epoch:
// 1 for the values the Versioned was constructed with, +1 per
// UpdateValues.
func (v *Versioned) Epoch() uint64 { return v.Vals.Seq() }

// Updates returns the number of UpdateValues publications so far.
func (v *Versioned) Updates() uint64 { return v.updates.Load() }

// Pattern returns a value-free CSR view of the shared pattern (Val
// nil), for structural queries only.
func (v *Versioned) Pattern() *CSR {
	return &CSR{N: v.n, M: v.m, RowPtr: v.rowPtr, ColIdx: v.colIdx}
}

// View returns a CSR sharing the immutable pattern with ep's value
// buffer — the consistent read snapshot matvecs and refactorizations
// run against. Valid only while ep stays pinned.
func (v *Versioned) View(ep *ValEpoch) *CSR {
	return &CSR{N: v.n, M: v.m, RowPtr: v.rowPtr, ColIdx: v.colIdx, Val: ep.Vals()}
}

// UpdateValues publishes vals (one value per stored pattern entry, in
// CSR order) as the new current epoch. The values are copied into a
// buffer no reader can observe — a drained retired buffer when one
// exists, a fresh allocation otherwise — and made current with one
// atomic swap, so UpdateValues is safe to call concurrently with any
// number of pinned readers and with other UpdateValues calls, and
// never waits for readers. A NaN or ±Inf value fails the update with
// an error wrapping ErrNonFinite and publishes nothing.
func (v *Versioned) UpdateValues(vals []float64) error {
	if len(vals) != len(v.colIdx) {
		return fmt.Errorf("sparse: UpdateValues got %d values, pattern has %d entries", len(vals), len(v.colIdx))
	}
	buf := v.Vals.Grab(v.newValues)
	if err := v.copyFinite(buf, vals); err != nil {
		v.Vals.Recycle(buf)
		return err
	}
	v.Vals.Publish(buf)
	v.updates.Add(1)
	return nil
}

// copyFinite copies src into dst (one value per pattern entry) and
// fails at the first NaN or ±Inf, naming its (row, column).
func (v *Versioned) copyFinite(dst, src []float64) error {
	dst = dst[:len(src)]
	for k, x := range src {
		// x−x is 0 for every finite x and NaN for NaN and ±Inf.
		if x-x != 0 {
			i := sort.Search(v.n, func(i int) bool { return v.rowPtr[i+1] > k })
			return fmt.Errorf("sparse: %w %g at entry (%d,%d)", ErrNonFinite, x, i, v.colIdx[k])
		}
		dst[k] = x
	}
	return nil
}

// newValues is the Grab fallback when every retired buffer is still
// pinned.
func (v *Versioned) newValues() []float64 { return make([]float64, len(v.colIdx)) }
