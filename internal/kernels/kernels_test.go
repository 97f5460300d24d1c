package kernels_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"javelin/internal/kernels"
)

// The cross-variant contract: every PAIR of registered variants
// produces bitwise-identical results on every kernel, for every
// length (including the asm remainder tails around the 4- and 16-wide
// unroll boundaries), at unaligned slice offsets, on adversarially
// scaled inputs where reassociation would visibly change the
// rounding. Iterating all pairs — not just reference↔blocked — means
// any future variant (avx2 today, a NEON table tomorrow) is covered
// the moment it registers.

// -kernels.variant forces the active table for the whole test binary,
// so CI can run this package once per registered variant and prove
// each one survives as the process default (dispatch wrappers, Select
// round-trips), not just as a Lookup target.
var forcedVariant = flag.String("kernels.variant", "", "force the active kernel table for this test run")

func TestMain(m *testing.M) {
	flag.Parse()
	if *forcedVariant != "" {
		if _, err := kernels.Select(*forcedVariant); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.Exit(m.Run())
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		// Wildly mixed magnitudes: a reassociated sum over these
		// disagrees in the low mantissa bits almost surely.
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	return v
}

// randVecOff returns an n-element vector that starts off elements
// into a larger backing array, so asm kernels see pointers at every
// alignment mod 32 and their unaligned-load and tail paths run.
func randVecOff(rng *rand.Rand, n, off int) []float64 {
	return randVec(rng, n+off)[off:]
}

func randCSRRows(rng *rand.Rand, n, m, maxRow int) (rowPtr, colIdx []int, vals []float64) {
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		rl := rng.Intn(maxRow + 1)
		if rl > m {
			rl = m
		}
		perm := rng.Perm(m)[:rl]
		cols := append([]int(nil), perm...)
		// Sorted ascending, as CSR requires.
		for a := 1; a < len(cols); a++ {
			for b := a; b > 0 && cols[b-1] > cols[b]; b-- {
				cols[b-1], cols[b] = cols[b], cols[b-1]
			}
		}
		colIdx = append(colIdx, cols...)
		rowPtr[i+1] = len(colIdx)
	}
	vals = randVec(rng, len(colIdx))
	return rowPtr, colIdx, vals
}

// variantPairs enumerates every unordered pair of registered tables.
func variantPairs(t *testing.T) [][2]*kernels.Table {
	t.Helper()
	names := kernels.Variants()
	tables := make([]*kernels.Table, len(names))
	for i, n := range names {
		tb, err := kernels.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tb
	}
	var pairs [][2]*kernels.Table
	for i := range tables {
		for j := i + 1; j < len(tables); j++ {
			pairs = append(pairs, [2]*kernels.Table{tables[i], tables[j]})
		}
	}
	return pairs
}

func TestVariantsRegistered(t *testing.T) {
	names := kernels.Variants()
	want := map[string]bool{"go-reference": false, "go-blocked": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("variant %q not registered (have %v)", n, names)
		}
	}
	if kernels.Variant() == "" {
		t.Fatal("no active variant")
	}
	if kernels.Active() == nil {
		t.Fatal("Active returned nil")
	}
}

func TestSelectRoundTrip(t *testing.T) {
	prev, err := kernels.Select("go-reference")
	if err != nil {
		t.Fatal(err)
	}
	if kernels.Variant() != "go-reference" {
		t.Fatalf("Select did not switch: %s", kernels.Variant())
	}
	if _, err := kernels.Select(prev.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := kernels.Select("no-such-variant"); err == nil {
		t.Fatal("Select accepted an unknown variant")
	}
}

// TestCrossVariantBitwise fuzzes every kernel across every variant
// pair and requires exact float64 bit equality. Lengths bracket the
// 4- and 16-wide unroll boundaries (0..9, 15, 16, 17) so asm
// remainder lanes run with 0–3 leftover elements after both block
// sizes; trials rotate the slice offset 0–3 to cover every pointer
// alignment mod 32.
func TestCrossVariantBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6b65726e))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 257, 1000}
	for _, pair := range variantPairs(t) {
		ref, tb := pair[0], pair[1]
		name := ref.Name + "↔" + tb.Name
		for trial := 0; trial < 12; trial++ {
			off := trial % 4
			for _, n := range lengths {
				x := randVecOff(rng, n, off)
				y := randVecOff(rng, n, off)

				if a, b := ref.Dot(x, y), tb.Dot(x, y); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s Dot n=%d: %x vs %x", name, n, a, b)
				}
				if a, b := ref.SumSq(x), tb.SumSq(x); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s SumSq n=%d: %x vs %x", name, n, a, b)
				}

				alpha := rng.NormFloat64()
				ya := append([]float64(nil), y...)
				yb := append([]float64(nil), y...)
				ref.Axpy(alpha, x, ya)
				tb.Axpy(alpha, x, yb)
				requireSame(t, name+" Axpy", ya, yb)

				xa := append([]float64(nil), x...)
				xb := append([]float64(nil), x...)
				ref.Scale(alpha, xa)
				tb.Scale(alpha, xb)
				requireSame(t, name+" Scale", xa, xb)

				// Sparse kernels over a random CSR block.
				m := n + 1
				rowPtr, colIdx, vals := randCSRRows(rng, n, m, 9)
				xv := randVecOff(rng, m, off)
				yra := make([]float64, n)
				yrb := make([]float64, n)
				ref.SpMVRows(rowPtr, colIdx, vals, xv, yra, 0, n)
				tb.SpMVRows(rowPtr, colIdx, vals, xv, yrb, 0, n)
				requireSame(t, name+" SpMVRows", yra, yrb)

				perm := rng.Perm(n)
				pa := make([]float64, n)
				pb := make([]float64, n)
				ref.GatherPerm(perm, x, pa)
				tb.GatherPerm(perm, x, pb)
				requireSame(t, name+" GatherPerm", pa, pb)
				ref.ScatterPerm(perm, x, pa)
				tb.ScatterPerm(perm, x, pb)
				requireSame(t, name+" ScatterPerm", pa, pb)
			}
		}
	}
}

// randFactorCSR builds an n×n CSR pattern shaped like an ILU factor:
// every row has its diagonal (nonzero value), sorted columns, a few
// random sub- and super-diagonal entries. rowLen biases the number of
// off-diagonal entries per row, so small values exercise the asm
// scalar tails and large ones the 4-wide blocks. Returns the row
// pointers, diagonal positions, columns, and values.
func randFactorCSR(rng *rand.Rand, n, rowLen int) (rowPtr, diagPos, colIdx []int, vals []float64) {
	rowPtr = make([]int, n+1)
	diagPos = make([]int, n)
	for r := 0; r < n; r++ {
		var cols []int
		for c := 0; c < n; c++ {
			if c == r || rng.Intn(n) < rowLen {
				cols = append(cols, c)
			}
		}
		for _, c := range cols {
			if c == r {
				diagPos[r] = len(colIdx)
			}
			colIdx = append(colIdx, c)
		}
		rowPtr[r+1] = len(colIdx)
	}
	vals = randVec(rng, len(colIdx))
	for r := 0; r < n; r++ {
		// Keep diagonals well away from zero: TriUpper divides by them.
		vals[diagPos[r]] = 1 + math.Abs(rng.NormFloat64())
	}
	return rowPtr, diagPos, colIdx, vals
}

// TestCrossVariantTriSweeps pins the whole-sweep substitution kernels
// across variant pairs on factor-shaped matrices, including tiny rows
// where only the unroll tail runs and denser ones (rowLen 9) whose
// rows cross the 4-wide block boundary.
func TestCrossVariantTriSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(0x74726973))
	for _, pair := range variantPairs(t) {
		ref, tb := pair[0], pair[1]
		name := ref.Name + "↔" + tb.Name
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 120} {
			for _, rowLen := range []int{4, 9} {
				for trial := 0; trial < 5; trial++ {
					rowPtr, diagPos, colIdx, vals := randFactorCSR(rng, n, rowLen)
					x0 := randVec(rng, n)
					// Partial sweeps too: the phased solve route runs
					// TriLower/TriUpper over row subranges.
					lo := rng.Intn(n)
					hi := lo + rng.Intn(n-lo) + 1

					xa := append([]float64(nil), x0...)
					xb := append([]float64(nil), x0...)
					ref.TriLower(rowPtr, diagPos, colIdx, vals, xa, lo, hi)
					tb.TriLower(rowPtr, diagPos, colIdx, vals, xb, lo, hi)
					requireSame(t, name+" TriLower", xa, xb)

					copy(xa, x0)
					copy(xb, x0)
					ref.TriUpper(rowPtr, diagPos, colIdx, vals, xa, lo, hi)
					tb.TriUpper(rowPtr, diagPos, colIdx, vals, xb, lo, hi)
					requireSame(t, name+" TriUpper", xa, xb)

					// Single rows [r, r+1) in sweep order, the call
					// shape of the CSR-LS baseline, give the whole
					// sweep's bits under both tables.
					copy(xa, x0)
					ref.TriLower(rowPtr, diagPos, colIdx, vals, xa, 0, n)
					for _, v := range pair {
						copy(xb, x0)
						for r := 0; r < n; r++ {
							v.TriLower(rowPtr, diagPos, colIdx, vals, xb, r, r+1)
						}
						requireSame(t, name+" "+v.Name+" TriLower rows", xa, xb)
					}
					copy(xa, x0)
					ref.TriUpper(rowPtr, diagPos, colIdx, vals, xa, 0, n)
					for _, v := range pair {
						copy(xb, x0)
						for r := n - 1; r >= 0; r-- {
							v.TriUpper(rowPtr, diagPos, colIdx, vals, xb, r, r+1)
						}
						requireSame(t, name+" "+v.Name+" TriUpper rows", xa, xb)
					}
				}
			}
		}
	}
}

// TestCrossVariantPanel pins the batched-apply micro-kernel across
// variant pairs on packed n×k panels, covering the k tail cases
// around the asm 4- and 8-wide steps.
func TestCrossVariantPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x70616e65))
	for _, pair := range variantPairs(t) {
		ref, tb := pair[0], pair[1]
		name := ref.Name + "↔" + tb.Name
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17} {
			n := 40
			rowPtr, colIdx, vals := randCSRRows(rng, n, n, 6)
			xbA := randVec(rng, n*k)
			xbB := append([]float64(nil), xbA...)
			for r := 0; r < n; r++ {
				lo, hi := rowPtr[r], rowPtr[r+1]
				ref.PanelUpdate(xbA, k, xbA[r*k:r*k+k], vals, colIdx, lo, hi)
				tb.PanelUpdate(xbB, k, xbB[r*k:r*k+k], vals, colIdx, lo, hi)
			}
			requireSame(t, name+" PanelUpdate", xbA, xbB)
		}
	}
}

func requireSame(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: index %d differs: %x vs %x", what, i, a[i], b[i])
		}
	}
}
