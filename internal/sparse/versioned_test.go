package sparse

import "testing"

// versionedFixture builds a small tridiagonal CSR whose every stored
// value is the constant c — so the generation a pinned epoch holds is
// directly observable.
func versionedFixture(n int, c float64) *CSR {
	coo := NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			coo.Add(i, i-1, c)
		}
		coo.Add(i, i, c)
		if i < n-1 {
			coo.Add(i, i+1, c)
		}
	}
	return coo.ToCSR()
}

func constVals(nnz int, c float64) []float64 {
	v := make([]float64, nnz)
	for i := range v {
		v[i] = c
	}
	return v
}

func TestVersionedBasics(t *testing.T) {
	a := versionedFixture(8, 1)
	v, err := NewVersioned(a)
	if err != nil {
		t.Fatalf("NewVersioned: %v", err)
	}
	if v.N() != 8 || v.M() != 8 || v.Nnz() != a.Nnz() {
		t.Fatalf("shape: got %dx%d nnz %d", v.N(), v.M(), v.Nnz())
	}
	if got := v.Epoch(); got != 1 {
		t.Fatalf("initial Epoch = %d, want 1", got)
	}
	if got := v.Updates(); got != 0 {
		t.Fatalf("initial Updates = %d, want 0", got)
	}

	ep := v.Vals.Pin()
	defer v.Vals.Unpin(ep)
	if ep.Seq() != 1 {
		t.Fatalf("pinned Seq = %d, want 1", ep.Seq())
	}
	// The first epoch owns a private copy: mutating the caller's
	// matrix must not leak into it.
	a.Val[0] = 999
	if ep.Vals()[0] != 1 {
		t.Fatalf("epoch shares caller's Val slice")
	}

	if err := v.UpdateValues(constVals(v.Nnz(), 2)); err != nil {
		t.Fatalf("UpdateValues: %v", err)
	}
	if got := v.Epoch(); got != 2 {
		t.Fatalf("Epoch after update = %d, want 2", got)
	}
	if got := v.Updates(); got != 1 {
		t.Fatalf("Updates after update = %d, want 1", got)
	}
	// The old pin still sees epoch-1 values.
	for k, val := range ep.Vals() {
		if val != 1 {
			t.Fatalf("pinned epoch mutated at %d: %g", k, val)
		}
	}
	ep2 := v.Vals.Pin()
	defer v.Vals.Unpin(ep2)
	if ep2.Seq() != 2 || ep2.Vals()[0] != 2 {
		t.Fatalf("new pin: seq %d val %g, want 2, 2", ep2.Seq(), ep2.Vals()[0])
	}

	view := v.View(ep2)
	if err := view.Validate(); err != nil {
		t.Fatalf("View invalid: %v", err)
	}
	x := make([]float64, 8)
	y := make([]float64, 8)
	for i := range x {
		x[i] = 1
	}
	view.MatVec(x, y)
	yv := make([]float64, 8)
	view.MatVecVals(ep2.Vals(), x, yv)
	for i := range y {
		if y[i] != yv[i] {
			t.Fatalf("MatVecVals mismatch at %d: %g vs %g", i, y[i], yv[i])
		}
	}
}

func TestVersionedUpdateLengthMismatch(t *testing.T) {
	v, err := NewVersioned(versionedFixture(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.UpdateValues(make([]float64, v.Nnz()+1)); err == nil {
		t.Fatal("UpdateValues accepted wrong-length slice")
	}
	if got := v.Epoch(); got != 1 {
		t.Fatalf("failed update advanced epoch to %d", got)
	}
}

func TestVersionedRejectsInvalid(t *testing.T) {
	bad := &CSR{N: 2, M: 2, RowPtr: []int{0, 1}, ColIdx: []int{0}, Val: []float64{1}}
	if _, err := NewVersioned(bad); err == nil {
		t.Fatal("NewVersioned accepted invalid CSR")
	}
}
