// Package trisolve provides sparse triangular solve (stri)
// implementations outside the Javelin engine: the serial CSR solves
// and the barrier-based level-set solver (CSR-LS) that Section VI
// uses as its baseline. The engine's own level-scheduled solves live
// in internal/core and give the serial solves' bits; Fig. 12 compares
// all three.
package trisolve

import (
	"javelin/internal/exec"
	"javelin/internal/ilu"
	"javelin/internal/kernels"
	"javelin/internal/levelset"
	"javelin/internal/util"
)

// SolveLowerSerial solves L·x = b where L is the unit-lower part of
// the factor (forward substitution). b and x may alias.
//
// The sub-diagonal entries of row i are exactly [RowPtr[i],
// DiagPos[i]) — the diagonal always exists and columns are sorted —
// so the row runs as an explicit-slice kernel instead of a
// compare-and-break scan: same elements, same order, same rounding.
func SolveLowerSerial(f *ilu.Factor, b, x []float64) {
	lu := f.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	kernels.TriLower(lu.RowPtr, f.DiagPos, lu.ColIdx, lu.Val, x, 0, lu.N)
}

// SolveUpperSerial solves U·x = b (backward substitution).
func SolveUpperSerial(f *ilu.Factor, b, x []float64) {
	lu := f.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	kernels.TriUpper(lu.RowPtr, f.DiagPos, lu.ColIdx, lu.Val, x, 0, lu.N)
}

// CSRLS is the baseline level-set triangular solver: levels computed
// once, then each solve sweeps the levels with a full thread barrier
// (WaitGroup join) after every level — exactly the structure the
// paper criticizes for its synchronization overhead on small levels.
type CSRLS struct {
	f       *ilu.Factor
	threads int
	// forward (L) levels
	fwd *levelset.Levels
	// backward (U) levels: level sets of the reverse DAG
	bwdPtr  []int
	bwdRows []int
}

// NewCSRLS builds the level structures for both sweeps.
func NewCSRLS(f *ilu.Factor, threads int) *CSRLS {
	if threads < 1 {
		threads = 1
	}
	s := &CSRLS{f: f, threads: threads}
	s.fwd = levelset.Compute(f.LU, levelset.LowerA)
	s.buildBackward()
	return s
}

func (s *CSRLS) buildBackward() {
	lu := s.f.LU
	n := lu.N
	lvl := make([]int, n)
	maxL := 0
	for i := n - 1; i >= 0; i-- {
		l := 0
		for k := s.f.DiagPos[i] + 1; k < lu.RowPtr[i+1]; k++ {
			c := lu.ColIdx[k]
			if lvl[c]+1 > l {
				l = lvl[c] + 1
			}
		}
		lvl[i] = l
		if l > maxL {
			maxL = l
		}
	}
	count := maxL + 1
	ptr := make([]int, count+1)
	for _, l := range lvl {
		ptr[l+1]++
	}
	for l := 0; l < count; l++ {
		ptr[l+1] += ptr[l]
	}
	rows := make([]int, n)
	next := append([]int(nil), ptr[:count]...)
	for i := 0; i < n; i++ {
		rows[next[lvl[i]]] = i
		next[lvl[i]]++
	}
	s.bwdPtr, s.bwdRows = ptr, rows
}

// NumLevels returns (forward levels, backward levels).
func (s *CSRLS) NumLevels() (int, int) { return s.fwd.Count, len(s.bwdPtr) - 1 }

// SolveLower performs the forward sweep with a barrier per level.
func (s *CSRLS) SolveLower(b, x []float64) {
	lu := s.f.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	for l := 0; l < s.fwd.Count; l++ {
		rows := s.fwd.LevelRows(l)
		s.parallelLevel(len(rows), func(i int) {
			r := rows[i]
			kernels.TriLower(lu.RowPtr, s.f.DiagPos, lu.ColIdx, lu.Val, x, r, r+1)
		})
	}
}

// SolveUpper performs the backward sweep with a barrier per level.
func (s *CSRLS) SolveUpper(b, x []float64) {
	lu := s.f.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	nLvl := len(s.bwdPtr) - 1
	for l := 0; l < nLvl; l++ {
		rows := s.bwdRows[s.bwdPtr[l]:s.bwdPtr[l+1]]
		s.parallelLevel(len(rows), func(i int) {
			r := rows[i]
			kernels.TriUpper(lu.RowPtr, s.f.DiagPos, lu.ColIdx, lu.Val, x, r, r+1)
		})
	}
}

// parallelLevel runs a level of at least 4 rows as one fork-join
// region of min(threads, n) contiguous row pieces: the barrier per
// level Anderson & Saad's level scheduling pays, however little work
// the level holds. Smaller levels, and every level at one thread, run
// inline (rows within a level are independent, so both round
// identically). The fork-join rides the persistent process-wide
// runtime, so the barrier cost measured is the join itself, not
// goroutine creation.
func (s *CSRLS) parallelLevel(n int, body func(i int)) {
	if s.threads > 1 && n >= 4 {
		k := min(s.threads, n)
		exec.Default().For(k, s.threads, func(_, p int) {
			for i, hi := p*n/k, (p+1)*n/k; i < hi; i++ {
				body(i)
			}
		})
		return
	}
	for i := 0; i < n; i++ {
		body(i)
	}
}

// Residual returns ‖L·x − b‖₂ for diagnostics in tests: verifies a
// forward-solve result against the factor.
func Residual(f *ilu.Factor, lower bool, x, b []float64) float64 {
	lu := f.LU
	n := lu.N
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		if lower {
			s = x[i] // unit diagonal
			for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
				c := lu.ColIdx[k]
				if c >= i {
					break
				}
				s += lu.Val[k] * x[c]
			}
		} else {
			for k := f.DiagPos[i]; k < lu.RowPtr[i+1]; k++ {
				s += lu.Val[k] * x[lu.ColIdx[k]]
			}
		}
		r[i] = s - b[i]
	}
	return util.Norm2(r)
}
