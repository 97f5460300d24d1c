package core

import (
	"math"
	"testing"

	"javelin/internal/levelset"
	"javelin/internal/sparse"
)

// FuzzFactorize factors a small diagonally dominant matrix built from
// the fuzz input and requires the engine's factor to equal the serial
// internal/ilu reference bit for bit, first on the cost model's routes
// and then with every factor stage forced onto its dispatched route.
// The options start from the zero value, as a caller who skips
// DefaultOptions would build them. The first five bytes pick the lower
// method, Threads (1-4), the fill level (0-1), the order n (1-40) and
// Split.MinRowsPerLevel (1-16); each following triple (i, j, v) adds
// v/16 to the off-diagonal entry (i mod n, j mod n). Every diagonal
// entry is one more than its row's off-diagonal magnitudes, so every
// pivot stays nonzero. The seed corpus is under
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
			Split:     levelset.SplitOptions{MinRowsPerLevel: 1 + int(data[4]%16)},
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

		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatalf("Lower=%v Threads=%d ILU(%d) n=%d: %v", opt.Lower, opt.Threads, opt.FillLevel, n, err)
		}
		defer e.Close()
		ref := referenceFactor(t, a, e, opt)
		check := func(step string) {
			if k, d := valueMismatch(e.Factor(), ref); k >= 0 {
				t.Fatalf("%v Threads=%d ILU(%d) n=%d, %d lower rows, %s: factor differs from the serial reference from entry %d on (max |diff| %g)",
					e.Method(), opt.Threads, opt.FillLevel, n, e.Split().NLower(), step, k, d)
			}
		}
		check("Factorize")
		e.upperOps, e.lowerOps = math.MaxInt64/2, math.MaxInt64/2
		if err := e.Refactorize(a); err != nil {
			t.Fatalf("dispatched Refactorize: %v", err)
		}
		check("dispatched Refactorize")
	})
}
