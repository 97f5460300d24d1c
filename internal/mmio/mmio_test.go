package mmio

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/sparse"
)

func TestReadGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% comment line
3 3 4
1 1 2.0
2 2 -1.5
3 1 4
3 3 1e2
`
	a, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 3 || a.M != 3 || a.Nnz() != 4 {
		t.Fatalf("shape %dx%d nnz %d", a.N, a.M, a.Nnz())
	}
	if a.At(0, 0) != 2 || a.At(1, 1) != -1.5 || a.At(2, 0) != 4 || a.At(2, 2) != 100 {
		t.Fatalf("values wrong: %v", a.ToDense())
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1.0
2 1 5.0
`
	a, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 5 || a.At(1, 0) != 5 {
		t.Fatalf("symmetric expansion failed: %v", a.ToDense())
	}
	if a.Nnz() != 3 {
		t.Fatalf("nnz %d want 3", a.Nnz())
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 3
2 1
`
	a, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 2) != 1 || a.At(1, 0) != 1 {
		t.Fatal("pattern entries should be 1")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	a, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 3 || a.At(0, 1) != -3 {
		t.Fatalf("skew expansion: %v", a.ToDense())
	}
}

func TestReadRejectsComplexAndBadInput(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"not a banner\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // truncated
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

// TestReadRejectsMalformedSizeAndNonFinite feeds inputs that Read once
// accepted (NaN, +Inf) or panicked on (a size line sizing the entry
// storage from a negative or impossible count). Each must return an
// error, and a non-finite value must wrap sparse.ErrNonFinite and name
// its line.
func TestReadRejectsMalformedSizeAndNonFinite(t *testing.T) {
	const general = "%%MatrixMarket matrix coordinate real general\n"
	cases := []struct {
		name, src string
		nonFinite bool
	}{
		{"NaN value", general + "1 1 1\n1 1 NaN\n", true},
		{"+Inf value", general + "1 1 1\n1 1 +Inf\n", true},
		{"negative size", general + "-1 -1 -1\n", false},
		{"negative nnz, symmetric", "%%MatrixMarket matrix coordinate real symmetric\n2 2 -3\n", false},
		{"nnz beyond n*m", general + "3 3 99999999999999\n", false},
		{"duplicates overflow", general + "2 2 2\n1 1 1e308\n1 1 1e308\n", true},
		{"dimension beyond maxDim", general + "999999999999 1 0\n", false},
		{"rows beyond entries", general + "268435456 1 0\n", false},
		{"columns beyond entries", general + "1 268435456 1\n1 1 1.0\n", false},
		{"non-square symmetric", "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Read panicked: %v", p)
				}
			}()
			_, err := Read(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if got := errors.Is(err, sparse.ErrNonFinite); got != tc.nonFinite {
				t.Fatalf("errors.Is(err, ErrNonFinite) = %v, want %v (err: %v)", got, tc.nonFinite, err)
			}
			if tc.nonFinite && !strings.Contains(err.Error(), "line 3") && !strings.Contains(err.Error(), "(1,1)") {
				t.Fatalf("error does not locate the value: %v", err)
			}
		})
	}
}

// TestReadDimensionSlack pins the bound on empty rows and columns: a
// dimension may exceed the stored entries by dimSlack and no more, so
// the size line alone cannot size the row pointers.
func TestReadDimensionSlack(t *testing.T) {
	const general = "%%MatrixMarket matrix coordinate real general\n"
	accept := []string{
		fmt.Sprintf("%d 1 0\n", dimSlack),
		fmt.Sprintf("%d %d 1\n1 1 2.0\n", dimSlack+1, dimSlack+1),
	}
	for _, src := range accept {
		a, err := Read(strings.NewReader(general + src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	reject := []string{
		fmt.Sprintf("%d 1 0\n", dimSlack+1),
		fmt.Sprintf("1 %d 0\n", dimSlack+1),
		fmt.Sprintf("%d %d 1\n1 1 2.0\n", dimSlack+2, dimSlack+2),
	}
	for _, src := range reject {
		if _, err := Read(strings.NewReader(general + src)); err == nil {
			t.Fatalf("%q: accepted more than dimSlack empty rows or columns", src)
		}
	}
	// A symmetric line stores two entries, so it backs two rows.
	sym := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real symmetric\n%d %d 1\n2 1 1.0\n", dimSlack+2, dimSlack+2)
	if _, err := Read(strings.NewReader(sym)); err != nil {
		t.Fatalf("symmetric: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := gen.TetraMesh(5, 5, 5, 77)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != b.N || a.Nnz() != b.Nnz() {
		t.Fatalf("round trip changed shape/nnz")
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] || a.ColIdx[k] != b.ColIdx[k] {
			t.Fatalf("round trip changed entry %d", k)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	a := gen.GridLaplacian(6, 6, 1, gen.Star5, 1)
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCSR(a, b) {
		t.Fatal("file round trip mismatch")
	}
}

func equalCSR(a, b *sparse.CSR) bool {
	if a.N != b.N || a.M != b.M || a.Nnz() != b.Nnz() {
		return false
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] || a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
	}
	return true
}
