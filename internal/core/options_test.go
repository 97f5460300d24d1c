package core

import (
	"fmt"
	"strings"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/sparse"
)

func TestEngineILU1MatchesSerial(t *testing.T) {
	a := gen.GridLaplacian(14, 14, 1, gen.Star5, 0.5)
	opt := DefaultOptions()
	opt.FillLevel = 1
	opt.Threads = 4
	opt.Split.MinRowsPerLevel = 8
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize ILU(1): %v", err)
	}
	defer e.Close()
	if e.Factor().LU.Nnz() <= a.Nnz() {
		t.Errorf("ILU(1) admitted no fill: %d vs %d", e.Factor().LU.Nnz(), a.Nnz())
	}
	ref := referenceFactor(t, a, e, opt)
	if d := maxFactorDiff(e.Factor(), ref); d != 0 {
		t.Errorf("ILU(1) factor differs from serial by %g", d)
	}
}

func TestEngineILU2MoreFillThanILU1(t *testing.T) {
	a := gen.TetraMesh(6, 6, 6, 31)
	nnz := make(map[int]int)
	for _, k := range []int{0, 1, 2} {
		opt := DefaultOptions()
		opt.FillLevel = k
		opt.Threads = 2
		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatalf("ILU(%d): %v", k, err)
		}
		nnz[k] = e.Factor().LU.Nnz()
		e.Close()
	}
	if !(nnz[0] <= nnz[1] && nnz[1] <= nnz[2]) {
		t.Errorf("fill not monotone in k: %v", nnz)
	}
}

func TestEngineDropTolMatchesSerial(t *testing.T) {
	a := gen.GridLaplacian(12, 12, 1, gen.Box9, 1.5)
	for _, lower := range []LowerMethod{LowerER, LowerSR} {
		opt := DefaultOptions()
		opt.DropTol = 0.1
		opt.Threads = 4
		opt.Lower = lower
		opt.Split.MinRowsPerLevel = 8
		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatalf("%v: %v", lower, err)
		}
		ref := referenceFactor(t, a, e, opt)
		if d := maxFactorDiff(e.Factor(), ref); d != 0 {
			t.Errorf("%v with τ: differs from serial by %g", lower, d)
		}
		e.Close()
	}
}

// TestZeroValueOptionsMatchSerialReference builds SR options from the
// zero value, as a caller who skips DefaultOptions would, and requires
// the serial reference's bits on every test matrix: no zero-valued
// option may select a level order under which SR is wrong.
func TestZeroValueOptionsMatchSerialReference(t *testing.T) {
	for name, a := range testMatrices(t) {
		for _, threads := range []int{1, 2, 4} {
			opt := Options{Lower: LowerSR, Threads: threads}
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatalf("%s threads=%d: %v", name, threads, err)
			}
			ref := referenceFactor(t, a, e, opt)
			if k, d := valueMismatch(e.Factor(), ref); k >= 0 {
				t.Errorf("%s threads=%d: %v factor differs from the serial reference from entry %d on (max |diff| %g)",
					name, threads, e.Method(), k, d)
			}
			e.Close()
		}
	}
}

// TestFactorizeRejectsUnknownLowerMethod: a Lower value outside the
// four methods fails with an error naming it, before any other check
// (the 2×3 matrix would fail as not square).
func TestFactorizeRejectsUnknownLowerMethod(t *testing.T) {
	a := sparse.NewCOO(2, 3, 0).ToCSR()
	for _, m := range []LowerMethod{-1, 4} {
		opt := DefaultOptions()
		opt.Lower = m
		e, err := Factorize(a, opt)
		if err == nil {
			e.Close()
			t.Fatalf("Lower=%d: Factorize returned no error", m)
		}
		if want := fmt.Sprintf("unknown lower method %d", m); !strings.Contains(err.Error(), want) {
			t.Errorf("Lower=%d: error %q does not contain %q", m, err, want)
		}
	}
}

func TestAutoSelectionRules(t *testing.T) {
	// Many excluded rows → ER; few → SR; none → LS.
	aMany := gen.GridLaplacian(300, 5, 1, gen.Star5, 1) // long thin: many small levels
	opt := DefaultOptions()
	opt.Threads = 2
	opt.Split.MinRowsPerLevel = 32
	e, err := Factorize(aMany, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Split().NLower() >= 2*opt.Threads && e.Method() != LowerER {
		t.Errorf("auto picked %v with %d lower rows and %d threads",
			e.Method(), e.Split().NLower(), opt.Threads)
	}
	if e.Split().NLower() == 0 && e.Method() != LowerNone {
		t.Errorf("auto picked %v with no lower rows", e.Method())
	}
}

func TestEngineOnSuiteSample(t *testing.T) {
	// Factor a sample of suite analogues end-to-end at small scale
	// with every lower method; all must match the serial reference.
	names := []string{"TSOPF_RS_b300_c2", "scircuit", "fem_filter", "offshore"}
	for _, name := range names {
		spec, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("missing spec %s", name)
		}
		a := spec.Build(1500)
		for _, lower := range []LowerMethod{LowerER, LowerSR, LowerNone} {
			opt := DefaultOptions()
			opt.Lower = lower
			opt.Threads = 4
			e, err := Factorize(a, opt)
			if err != nil {
				t.Errorf("%s/%v: %v", name, lower, err)
				continue
			}
			ref := referenceFactor(t, a, e, opt)
			if d := maxFactorDiff(e.Factor(), ref); d != 0 {
				t.Errorf("%s/%v: differs by %g", name, lower, d)
			}
			e.Close()
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	a := gen.GridLaplacian(8, 8, 1, gen.Star5, 1)
	opt := DefaultOptions()
	opt.Lower = LowerSR
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
}
