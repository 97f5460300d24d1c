package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"javelin/internal/ilu"
	"javelin/internal/levelset"
	"javelin/internal/sparse"
)

// miluRelTol bounds, relative to the reference factor's largest
// magnitude, how far a MILU factor may sit from the serial reference.
const miluRelTol = 1e-12

// FuzzFactorize factors a small diagonally dominant matrix built from
// the fuzz input and compares the engine's factor with the serial
// internal/ilu reference, first on the cost model's routes and then
// with every factor stage forced onto its dispatched route. The
// options start from the zero value, as a caller who skips
// DefaultOptions would build them. The first five bytes pick the lower
// method, Threads (1-4), the fill level (0-1), the order n (1-40) and,
// in data[4], Split.MinRowsPerLevel (1-16) from the low nibble, MILU
// from bit 4 and τ ∈ {0, 0.05} from bit 5; each following triple
// (i, j, v) adds v/16 to the off-diagonal entry (i mod n, j mod n).
// Every diagonal entry is one more than its row's off-diagonal
// magnitudes, so without MILU every pivot stays nonzero.
//
// Without MILU the factor must equal the reference bit for bit, τ
// included. With MILU it need not: the reference sums a row's
// compensation in one run, while the engine sums a lower row's
// upper-stage part (per upper level under SR) apart from its corner
// part. On the seven test matrices (MinRowsPerLevel 8, ER and SR,
// ILU(0) and ILU(1), τ ∈ {0, 0.05}) the two differ by up to 1.8e-15,
// 3.0e-16 of the factor's largest magnitude. So a MILU factor must
// lie within miluRelTol of the reference, over three orders of
// magnitude above that, and the dispatched Refactorize must reproduce
// the first Factorize bit for bit. MILU compensation can cancel a
// pivot; inputs on which the reference itself reports a zero pivot
// are skipped. At Threads > 1 each accepted factor is then applied
// (SolveLower, SolveUpper and Apply) on the inline and the phased
// solve route, which must give identical bits. The seed corpus is
// under testdata/fuzz/FuzzFactorize.
func FuzzFactorize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		opt := Options{
			Lower:     LowerMethod(data[0] % 4),
			Threads:   1 + int(data[1]%4),
			FillLevel: int(data[2] % 2),
			Modified:  data[4]&0x10 != 0,
			Split:     levelset.SplitOptions{MinRowsPerLevel: 1 + int(data[4]%16)},
		}
		if data[4]&0x20 != 0 {
			opt.DropTol = 0.05
		}
		n := 1 + int(data[3]%40)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		for p := data[5:]; len(p) >= 3; p = p[3:] {
			if i, j := int(p[0])%n, int(p[1])%n; i != j {
				dense[i][j] += float64(int8(p[2])) / 16
			}
		}
		for i, row := range dense {
			s := 1.0
			for _, v := range row {
				s += math.Abs(v)
			}
			row[i] = s
		}
		a := sparse.FromDense(dense)

		cfg := fmt.Sprintf("Lower=%v Threads=%d ILU(%d) MILU=%t τ=%g n=%d",
			opt.Lower, opt.Threads, opt.FillLevel, opt.Modified, opt.DropTol, n)
		skipZeroPivot := func(err error) {
			if opt.Modified && errors.Is(err, ilu.ErrZeroPivot) {
				t.Skipf("%s: the reference reports %v", cfg, err)
			}
		}
		e, err := Factorize(a, opt)
		if err != nil {
			// The split does not depend on values or MILU, so a MILU-off
			// engine gives the reference its permuted pattern.
			noMILU := opt
			noMILU.Modified = false
			if e0, err0 := Factorize(a, noMILU); err0 == nil {
				_, refErr := serialFactor(a, e0, opt)
				e0.Close()
				skipZeroPivot(refErr)
			}
			t.Fatalf("%s: %v", cfg, err)
		}
		defer e.Close()
		ref, err := serialFactor(a, e, opt)
		if err != nil {
			skipZeroPivot(err)
			t.Fatalf("%s: reference: %v", cfg, err)
		}
		want := digestValues(e.Factor().LU.Val)
		scale := 0.0
		for _, x := range ref.LU.Val {
			scale = max(scale, math.Abs(x))
		}
		check := func(step string) {
			if opt.Modified {
				if d := maxFactorDiff(e.Factor(), ref); !(d <= miluRelTol*scale) {
					t.Fatalf("%v %s, %d lower rows, %s: factor differs from the serial reference by %g, more than %g × its largest magnitude %g",
						e.Method(), cfg, e.Split().NLower(), step, d, miluRelTol, scale)
				}
				return
			}
			if k, d := valueMismatch(e.Factor(), ref); k >= 0 {
				t.Fatalf("%v %s, %d lower rows, %s: factor differs from the serial reference from entry %d on (max |diff| %g)",
					e.Method(), cfg, e.Split().NLower(), step, k, d)
			}
		}
		check("Factorize")
		e.factorOps = math.MaxInt64 / 2
		if err := e.Refactorize(a); err != nil {
			t.Fatalf("%s: dispatched Refactorize: %v", cfg, err)
		}
		check("dispatched Refactorize")
		if digestValues(e.Factor().LU.Val) != want {
			t.Fatalf("%v %s: the dispatched Refactorize differs from Factorize", e.Method(), cfg)
		}
		if e.Threads() > 1 {
			b := make([]float64, n)
			for i := range b {
				b[i] = 1 + float64(i%5)
			}
			forceSolveRoute(e, false)
			inline := solveBits(e, b)
			forceSolveRoute(e, true)
			if i := firstBitDiff(solveBits(e, b), inline); i >= 0 {
				op := []string{"SolveLower", "SolveUpper", "Apply"}[i/n]
				t.Fatalf("%v %s: phased %s differs from inline at row %d", e.Method(), cfg, op, i%n)
			}
		}
	})
}
