package javelin

import (
	"errors"
	"fmt"

	"javelin/internal/sparse"
)

// MatrixEpoch is one pinned generation of a VersionedMatrix's values.
// Obtain one from VersionedMatrix.Pin and release it with Unpin; the
// epoch's values are guaranteed stable for exactly that window.
type MatrixEpoch = sparse.ValEpoch

// VersionedMatrix is a sparse matrix whose values may be republished
// while solves are in flight: the live-update counterpart of the
// immutable Matrix, carrying the same epoch pin/publish discipline as
// the Preconditioner's factor values. The sparsity pattern is fixed
// at construction; UpdateValues publishes a complete new value
// generation with one atomic swap and never waits for readers, so a
// timestepping or transient-simulation server can push new matrix
// values under continuous solve traffic without tearing anything
// down. See doc.go's "Live updates & drift policy" section.
//
// A VersionedMatrix is safe for unlimited concurrent use: any number
// of goroutines may Pin/Unpin, solve through it, and call
// UpdateValues simultaneously.
type VersionedMatrix struct {
	v *sparse.Versioned
}

// NewVersionedMatrix wraps m's pattern and current values as the
// first epoch of a versioned matrix. The pattern arrays are shared
// with m (both sides treat them as immutable); the values are copied,
// so later mutations of m are not observed.
func NewVersionedMatrix(m *Matrix) (*VersionedMatrix, error) {
	if m == nil || m.csr == nil {
		return nil, errors.New("javelin: NewVersionedMatrix: nil matrix")
	}
	v, err := sparse.NewVersioned(m.csr)
	if err != nil {
		return nil, err
	}
	return &VersionedMatrix{v: v}, nil
}

// N returns the number of rows.
func (vm *VersionedMatrix) N() int { return vm.v.N() }

// Cols returns the number of columns.
func (vm *VersionedMatrix) Cols() int { return vm.v.M() }

// Nnz returns the number of stored entries (fixed across epochs).
func (vm *VersionedMatrix) Nnz() int { return vm.v.Nnz() }

// Epoch returns the sequence number of the currently published value
// generation: 1 at construction, +1 per UpdateValues/UpdateMatrix.
func (vm *VersionedMatrix) Epoch() uint64 { return vm.v.Epoch() }

// Updates returns the number of value publications since construction.
func (vm *VersionedMatrix) Updates() uint64 { return vm.v.Updates() }

// UpdateValues publishes a new value generation: one value per stored
// entry, in the matrix's CSR entry order (row-major, columns
// ascending — the order Matrix.Raw exposes). The slice is copied;
// in-flight solves finish on the generation they pinned, solves that
// start after UpdateValues returns see the new values.
func (vm *VersionedMatrix) UpdateValues(vals []float64) error {
	return vm.v.UpdateValues(vals)
}

// UpdateMatrix publishes m's values as a new generation. m must have
// exactly the pattern this VersionedMatrix was constructed with; a
// differing pattern is an error (a drifted pattern needs a new
// VersionedMatrix and a fresh factorization, not a value update).
func (vm *VersionedMatrix) UpdateMatrix(m *Matrix) error {
	if m == nil || m.csr == nil {
		return errors.New("javelin: UpdateMatrix: nil matrix")
	}
	if err := vm.samePattern(m.csr); err != nil {
		return err
	}
	return vm.v.UpdateValues(m.csr.Val)
}

// samePattern checks that c's sparsity structure matches the
// versioned pattern entry for entry.
func (vm *VersionedMatrix) samePattern(c *sparse.CSR) error {
	pat := vm.v.Pattern()
	if c.N != pat.N || c.M != pat.M {
		return fmt.Errorf("javelin: UpdateMatrix: matrix is %d×%d, versioned pattern is %d×%d",
			c.N, c.M, pat.N, pat.M)
	}
	for i := 0; i <= pat.N; i++ {
		if c.RowPtr[i] != pat.RowPtr[i] {
			return fmt.Errorf("javelin: UpdateMatrix: pattern differs at row %d", i)
		}
	}
	for k, j := range pat.ColIdx {
		if c.ColIdx[k] != j {
			return fmt.Errorf("javelin: UpdateMatrix: pattern differs at entry %d", k)
		}
	}
	return nil
}

// Pin returns the current value epoch with a reader reference held:
// the epoch's values cannot be recycled until the matching Unpin, so
// a Pin/Unpin bracket gives a multi-step reader (a solve, a
// refactorization, an export) one consistent A across publications.
// Every Pin must be balanced by exactly one Unpin.
func (vm *VersionedMatrix) Pin() *MatrixEpoch { return vm.v.Vals.Pin() }

// Unpin releases a reference taken by Pin.
func (vm *VersionedMatrix) Unpin(ep *MatrixEpoch) { vm.v.Vals.Unpin(ep) }

// Matrix returns an immutable snapshot of the currently published
// generation as a plain Matrix (pattern shared, values copied).
func (vm *VersionedMatrix) Matrix() *Matrix {
	ep := vm.v.Vals.Pin()
	defer vm.v.Vals.Unpin(ep)
	c := vm.v.Pattern()
	c.Val = append([]float64(nil), ep.Vals()...)
	return &Matrix{csr: c}
}

// epochMatrix returns a CSR view of the given pinned epoch (pattern
// shared, values the epoch's buffer). Valid only while ep is pinned.
func (vm *VersionedMatrix) epochMatrix(ep *MatrixEpoch) *sparse.CSR {
	return vm.v.View(ep)
}
