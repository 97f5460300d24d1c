// Package baseline implements the comparison factorization of the
// paper's evaluation: a heavyweight supernodal blocked ILUT standing
// in for the commercial WSMP package (Fig. 9).
//
// The supernodal baseline deliberately embodies the design the paper
// blames for WSMP's slowdowns: supernode panels with dense scratch
// gather/scatter (high data movement per flop on very sparse
// incomplete factors), stricter numerical requirements that make it
// fail where Javelin succeeds (the 'x' columns of Fig. 9), and a
// single global work queue whose contention stops scaling at low
// thread counts.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"javelin/internal/exec"
	"javelin/internal/ilu"
	"javelin/internal/sparse"
)

// SupernodalOptions configures the WSMP-analogue factorization.
type SupernodalOptions struct {
	// DropTol is ILUT's τ (relative to the row's ∞-norm). The paper
	// sets it "so that nonzeros are similar to that of ILU(0)".
	DropTol float64
	// MaxPanel caps supernode size.
	MaxPanel int
	// Similarity in [0,1]: consecutive rows join a panel when the
	// Jaccard similarity of their patterns is at least this.
	Similarity float64
	// PivotRel fails the factorization when a pivot is smaller than
	// PivotRel × the largest diagonal magnitude — the "numerical
	// constraints placed in part by the internal structure" that make
	// WSMP fail on many of the suite's matrices (no reordering is
	// available to rescue it, matching the paper's no-pivoting setup).
	PivotRel float64
	// Threads for the (contended) panel-row parallelism.
	Threads int
}

// DefaultSupernodalOptions mirrors the Fig. 9 configuration.
func DefaultSupernodalOptions() SupernodalOptions {
	return SupernodalOptions{
		DropTol:    0.01,
		MaxPanel:   24,
		Similarity: 0.7,
		PivotRel:   1e-10,
		Threads:    1,
	}
}

// ErrNumericalFailure mirrors WSMP's internal failures ('x' in Fig 9).
var ErrNumericalFailure = errors.New("baseline: supernodal ILUT numerical failure")

// Supernodal computes an ILUT factorization with supernode panels.
// The result uses the repo-wide Factor layout so the triangular-solve
// baselines apply to it.
func Supernodal(a *sparse.CSR, opt SupernodalOptions) (*ilu.Factor, error) {
	if a.N != a.M {
		return nil, errors.New("baseline: matrix must be square")
	}
	if opt.MaxPanel < 1 {
		opt.MaxPanel = 24
	}
	if opt.Threads < 1 {
		opt.Threads = 1
	}
	n := a.N
	panels := detectPanels(a, opt)

	st := &snState{
		a:       a,
		opt:     opt,
		rowCols: make([][]int, n),
		rowVals: make([][]float64, n),
		diagVal: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if d := math.Abs(a.At(i, i)); d > st.maxDiag {
			st.maxDiag = d
		}
	}
	if st.maxDiag == 0 {
		return nil, fmt.Errorf("%w: zero diagonal", ErrNumericalFailure)
	}

	queue := &globalQueue{}
	serialScratch := newSnScratch(n)

	for _, p := range panels {
		// Phase A ("gather + external update"): each panel row is
		// eliminated against pivots before the panel, in parallel via
		// the contended global queue. Earlier panels are final, so
		// tasks are independent.
		for r := p.lo; r < p.hi; r++ {
			r := r
			lo := p.lo
			queue.push(func(sc *snScratch) error {
				return st.eliminate(r, 0, lo, false, sc)
			})
		}
		if err := queue.drain(opt.Threads, n); err != nil {
			return nil, err
		}
		// Phase B ("internal factorization"): pivots inside the panel,
		// serial in row order, then threshold scatter.
		for r := p.lo; r < p.hi; r++ {
			if err := st.eliminate(r, p.lo, r, true, serialScratch); err != nil {
				return nil, err
			}
		}
	}

	// Assemble the factor CSR.
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + len(st.rowCols[i])
	}
	col := make([]int, ptr[n])
	val := make([]float64, ptr[n])
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		base := ptr[i]
		copy(col[base:], st.rowCols[i])
		copy(val[base:], st.rowVals[i])
		dp := -1
		for k := base; k < ptr[i+1]; k++ {
			if col[k] == i {
				dp = k
				break
			}
		}
		if dp < 0 {
			return nil, fmt.Errorf("%w: lost diagonal in row %d", ErrNumericalFailure, i)
		}
		diagPos[i] = dp
	}
	lu := &sparse.CSR{N: n, M: n, RowPtr: ptr, ColIdx: col, Val: val}
	return &ilu.Factor{LU: lu, DiagPos: diagPos}, nil
}

// snState is the shared factorization state.
type snState struct {
	a       *sparse.CSR
	opt     SupernodalOptions
	rowCols [][]int
	rowVals [][]float64
	diagVal []float64
	maxDiag float64
}

// snScratch is per-worker dense scratch — the "panel gather buffer"
// whose repeated fill/clear is the data-movement overhead.
type snScratch struct {
	w   []float64
	inW []int
}

func newSnScratch(n int) *snScratch {
	sc := &snScratch{w: make([]float64, n), inW: make([]int, n)}
	for i := range sc.inW {
		sc.inW[i] = -1
	}
	return sc
}

// eliminate processes row r against pivots in [pivotLo, pivotHi).
// When pivotLo == 0 the row is first gathered from A (phase A);
// otherwise the stored intermediate row is reloaded (phase B). When
// finish is true the row is threshold-scattered and its diagonal
// recorded; otherwise the intermediate row is stored for phase B.
func (st *snState) eliminate(r, pivotLo, pivotHi int, finish bool, sc *snScratch) error {
	opt := st.opt
	w, inW := sc.w, sc.inW
	var cols []int
	norm := 0.0
	if pivotLo == 0 {
		acols, avals := st.a.Row(r)
		cols = make([]int, 0, 2*len(acols))
		for k, j := range acols {
			w[j] = avals[k]
			inW[j] = r
			cols = append(cols, j)
			if v := math.Abs(avals[k]); v > norm {
				norm = v
			}
		}
		if inW[r] != r {
			w[r] = 0
			inW[r] = r
			cols = append(cols, r)
			sort.Ints(cols)
		}
	} else {
		prevC, prevV := st.rowCols[r], st.rowVals[r]
		cols = make([]int, len(prevC), len(prevC)+8)
		copy(cols, prevC)
		for k, j := range prevC {
			w[j] = prevV[k]
			inW[j] = r
			if v := math.Abs(prevV[k]); v > norm {
				norm = v
			}
		}
	}
	thresh := opt.DropTol * norm

	for ci := 0; ci < len(cols); ci++ {
		j := cols[ci]
		if j >= pivotHi || j >= r {
			break
		}
		if j < pivotLo {
			continue
		}
		piv := st.diagVal[j]
		if math.Abs(piv) < opt.PivotRel*st.maxDiag {
			clearW(cols, inW)
			return fmt.Errorf("%w: pivot %g at column %d below floor",
				ErrNumericalFailure, piv, j)
		}
		lij := w[j] / piv
		if math.Abs(lij) < thresh {
			w[j] = 0
			continue
		}
		w[j] = lij
		cj, vj := st.rowCols[j], st.rowVals[j]
		for k, uc := range cj {
			if uc <= j {
				continue
			}
			upd := lij * vj[k]
			if inW[uc] == r {
				w[uc] -= upd
			} else if math.Abs(upd) >= thresh {
				w[uc] = -upd
				inW[uc] = r
				cols = insertSortedInt(cols, uc)
			}
		}
	}

	if !finish {
		// Store the intermediate row (no dropping yet beyond ILUT's
		// multiplier rule) for phase B.
		outC := make([]int, len(cols))
		outV := make([]float64, len(cols))
		copy(outC, cols)
		for i, j := range cols {
			outV[i] = w[j]
		}
		clearW(cols, inW)
		st.rowCols[r], st.rowVals[r] = outC, outV
		return nil
	}

	outC := make([]int, 0, len(cols))
	outV := make([]float64, 0, len(cols))
	dv := 0.0
	for _, j := range cols {
		v := w[j]
		if j == r {
			dv = v
			outC = append(outC, j)
			outV = append(outV, v)
			continue
		}
		if math.Abs(v) >= thresh {
			outC = append(outC, j)
			outV = append(outV, v)
		}
	}
	clearW(cols, inW)
	if math.Abs(dv) < opt.PivotRel*st.maxDiag {
		return fmt.Errorf("%w: zero pivot in row %d", ErrNumericalFailure, r)
	}
	st.rowCols[r], st.rowVals[r], st.diagVal[r] = outC, outV, dv
	return nil
}

// panel is a supernode candidate: rows [lo, hi).
type panel struct{ lo, hi int }

// detectPanels merges consecutive rows with similar patterns. On
// incomplete-factorization patterns there is typically little overlap
// — the paper's explanation for why supernodal designs do "too many
// data movement operations per float-point operation" here.
func detectPanels(a *sparse.CSR, opt SupernodalOptions) []panel {
	var out []panel
	n := a.N
	lo := 0
	for i := 1; i <= n; i++ {
		if i == n || i-lo >= opt.MaxPanel || jaccard(a, i-1, i) < opt.Similarity {
			out = append(out, panel{lo, i})
			lo = i
		}
	}
	return out
}

func jaccard(a *sparse.CSR, r1, r2 int) float64 {
	c1, _ := a.Row(r1)
	c2, _ := a.Row(r2)
	i, j, inter := 0, 0, 0
	for i < len(c1) && j < len(c2) {
		switch {
		case c1[i] == c2[j]:
			inter++
			i++
			j++
		case c1[i] < c2[j]:
			i++
		default:
			j++
		}
	}
	union := len(c1) + len(c2) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func clearW(cols []int, inW []int) {
	for _, j := range cols {
		inW[j] = -1
	}
}

func insertSortedInt(xs []int, v int) []int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	xs = append(xs, 0)
	copy(xs[lo+1:], xs[lo:])
	xs[lo] = v
	return xs
}

// globalQueue is the single contended work queue. Every pop takes the
// same mutex; with rising thread counts the queue serializes —
// reproducing the baseline's scaling ceiling.
type globalQueue struct {
	mu    sync.Mutex
	tasks []func(*snScratch) error
}

func (q *globalQueue) push(t func(*snScratch) error) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
}

func (q *globalQueue) pop() func(*snScratch) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t
}

// drain runs queued tasks on the given number of workers, each with
// its own dense scratch of size n.
func (q *globalQueue) drain(threads, n int) error {
	if threads == 1 {
		sc := newSnScratch(n)
		for {
			t := q.pop()
			if t == nil {
				return nil
			}
			if err := t(sc); err != nil {
				return err
			}
		}
	}
	// One drainer per piece on the persistent runtime; each piece owns
	// its dense scratch.
	var firstErr atomic.Value
	exec.Default().For(threads, threads, func(_, _ int) {
		sc := newSnScratch(n)
		for {
			task := q.pop()
			if task == nil {
				return
			}
			if err := task(sc); err != nil {
				firstErr.CompareAndSwap(nil, err) //nolint:errcheck
				return
			}
		}
	})
	if v := firstErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}
