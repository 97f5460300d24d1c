// Package trisolve provides sparse triangular solve (stri)
// implementations outside the Javelin engine: the serial CSR solves
// and the barrier-based level-set solver (CSR-LS) that Section VI
// uses as its baseline. The engine's own staged solves live in
// internal/core; Fig. 12 compares all three.
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
	// per-level flop estimates (2 per nonzero scanned), computed once
	// so each sweep can consult the runtime's adaptive cutoff without
	// re-walking the pattern
	fwdOps []int64
	bwdOps []int64
}

// NewCSRLS builds the level structures for both sweeps.
func NewCSRLS(f *ilu.Factor, threads int) *CSRLS {
	if threads < 1 {
		threads = 1
	}
	s := &CSRLS{f: f, threads: threads}
	s.fwd = levelset.FromLowerPattern(f.LU)
	s.buildBackward()
	s.countOps()
	return s
}

func (s *CSRLS) countOps() {
	lu := s.f.LU
	s.fwdOps = make([]int64, s.fwd.Count)
	for l := 0; l < s.fwd.Count; l++ {
		var ops int64
		for _, r := range s.fwd.LevelRows(l) {
			ops += 2 * int64(s.f.DiagPos[r]-lu.RowPtr[r])
		}
		s.fwdOps[l] = ops
	}
	nLvl := len(s.bwdPtr) - 1
	s.bwdOps = make([]int64, nLvl)
	for l := 0; l < nLvl; l++ {
		var ops int64
		for _, r := range s.bwdRows[s.bwdPtr[l]:s.bwdPtr[l+1]] {
			ops += 2 * int64(lu.RowPtr[r+1]-s.f.DiagPos[r])
		}
		s.bwdOps[l] = ops
	}
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
		s.parallelLevel(len(rows), s.fwdOps[l], func(i int) {
			r := rows[i]
			lo, dp := lu.RowPtr[r], s.f.DiagPos[r]
			x[r] = kernels.SubGather(x[r], lu.Val[lo:dp], lu.ColIdx[lo:dp], x)
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
		s.parallelLevel(len(rows), s.bwdOps[l], func(i int) {
			r := rows[i]
			dp := s.f.DiagPos[r]
			hi := lu.RowPtr[r+1]
			sum := kernels.SubGather(x[r], lu.Val[dp+1:hi], lu.ColIdx[dp+1:hi], x)
			x[r] = sum / lu.Val[dp]
		})
	}
}

// parallelLevel runs a level with a fork-join barrier — the cost the
// baseline pays on every level, however small. Levels whose measured
// flop count cannot repay the runtime's region overhead run inline
// instead (rows within a level are independent, so inline and
// parallel execution round identically). This favors the baseline,
// making Fig. 12's comparison conservative. The fork-join rides the
// persistent process-wide runtime, so the barrier overhead measured
// is the join itself, not goroutine creation.
func (s *CSRLS) parallelLevel(n int, ops int64, body func(i int)) {
	if s.threads != 1 && n >= 4 {
		rt := exec.Default()
		if pieces := rt.PiecesFor(ops, s.threads); pieces > 1 {
			rt.For(n, pieces, body)
			return
		}
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
