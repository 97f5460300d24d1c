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

// FuzzFactorize factors a small matrix built from the fuzz input and
// compares the engine's factor with the serial internal/ilu
// reference, after Factorize and after a Refactorize, which must
// reproduce it. At Threads > 1 both passes dispatch every factor
// stage. The options start from the zero value, as a caller who skips
// DefaultOptions would build them. The first five bytes pick the
// lower method, Threads (1-4), the fill level (0-1), the order n
// (1-40) and, in data[4], Split.MinRowsPerLevel (1-16) from the low
// nibble, MILU from bit 4, τ ∈ {0, 0.05} from bit 5 and the value
// encoding from bit 6. With bit 6 clear each following triple
// (i, j, v) adds v/16 to the off-diagonal entry (i mod n, j mod n),
// and every diagonal entry is one more than its row's off-diagonal
// magnitudes, so without MILU every pivot stays nonzero. With bit 6
// set each following quadruple (i, j, v, x) adds v/16·10^(2x), v and x
// signed bytes, to entry (i mod n, j mod n), the diagonal included,
// and a diagonal entry left zero is one more than its row's
// off-diagonal magnitudes. Such a matrix can overflow its factor or
// cancel a pivot, so it is held to an absolute oracle first: every
// input is finite, so Factorize must either fail with a typed error
// (sparse.ErrNonFinite or ilu.ErrZeroPivot), which ends the case, or
// publish a factor whose every value is finite.
//
// Without MILU the factor must equal the reference bit for bit, τ
// included. With MILU it need not: the reference sums a row's
// compensation in one run, while the engine sums a lower row's
// upper-stage part (per upper level under SR) apart from its corner
// part. On the seven test matrices (MinRowsPerLevel 8, ER and SR,
// ILU(0) and ILU(1), τ ∈ {0, 0.05}) the two differ by up to 1.8e-15,
// 3.0e-16 of the factor's largest magnitude. So a MILU factor must
// lie within miluRelTol of the reference, over three orders of
// magnitude above that, and the Refactorize must reproduce the first
// Factorize bit for bit. MILU compensation can cancel a
// pivot; inputs on which the reference itself reports a zero pivot
// are skipped. Each accepted factor is then applied (SolveLower,
// SolveUpper and Apply) inline and, at Threads > 1, on the phased
// solve route: on each route both triangular solves must give the
// bits of serial substitution on the factor, and Apply must give the
// same bits on both. The seed corpus is under
// testdata/fuzz/FuzzFactorize.
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
		scaled := data[4]&0x40 != 0
		n := 1 + int(data[3]%40)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		if scaled {
			for p := data[5:]; len(p) >= 4; p = p[4:] {
				i, j := int(p[0])%n, int(p[1])%n
				dense[i][j] += float64(int8(p[2])) / 16 * math.Pow10(2*int(int8(p[3])))
			}
		} else {
			for p := data[5:]; len(p) >= 3; p = p[3:] {
				if i, j := int(p[0])%n, int(p[1])%n; i != j {
					dense[i][j] += float64(int8(p[2])) / 16
				}
			}
		}
		for i, row := range dense {
			if scaled && row[i] != 0 {
				continue
			}
			s := 1.0
			for j, v := range row {
				if j != i {
					s += math.Abs(v)
				}
			}
			row[i] = s
		}
		a := sparse.FromDense(dense)

		cfg := fmt.Sprintf("Lower=%v Threads=%d ILU(%d) MILU=%t τ=%g n=%d scaled=%t",
			opt.Lower, opt.Threads, opt.FillLevel, opt.Modified, opt.DropTol, n, scaled)
		skipZeroPivot := func(err error) {
			if opt.Modified && errors.Is(err, ilu.ErrZeroPivot) {
				t.Skipf("%s: the reference reports %v", cfg, err)
			}
		}
		e, err := Factorize(a, opt)
		if scaled {
			if err != nil {
				if errors.Is(err, sparse.ErrNonFinite) || errors.Is(err, ilu.ErrZeroPivot) {
					return
				}
				t.Fatalf("%s: finite input, untyped error: %v", cfg, err)
			}
			for k, x := range e.Factor().LU.Val {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					e.Close()
					t.Fatalf("%s: finite input, factor entry %d is %g", cfg, k, x)
				}
			}
		}
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
		if err := e.Refactorize(a); err != nil {
			t.Fatalf("%s: Refactorize: %v", cfg, err)
		}
		check("Refactorize")
		if digestValues(e.Factor().LU.Val) != want {
			t.Fatalf("%v %s: Refactorize differs from Factorize", e.Method(), cfg)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 1 + float64(i%5)
		}
		if msg := solveMismatch(e, b); msg != "" {
			t.Fatalf("%v %s: %s", e.Method(), cfg, msg)
		}
	})
}
