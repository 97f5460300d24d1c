package mmio

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRead checks that Read never panics, that whatever it accepts is
// a valid CSR holding only finite values, and that Write followed by
// Read gives back the same shape, pattern and value bits. The seed
// corpus is under testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Read returned an invalid CSR: %v", err)
		}
		for k, v := range a.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Read returned non-finite value %g at entry %d", v, k)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, a); err != nil {
			t.Fatal(err)
		}
		b, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write output failed: %v", err)
		}
		if a.N != b.N || a.M != b.M || a.Nnz() != b.Nnz() {
			t.Fatalf("round trip changed shape: %dx%d nnz %d -> %dx%d nnz %d", a.N, a.M, a.Nnz(), b.N, b.M, b.Nnz())
		}
		for i := range a.RowPtr {
			if a.RowPtr[i] != b.RowPtr[i] {
				t.Fatalf("round trip changed RowPtr[%d]", i)
			}
		}
		for k := range a.Val {
			if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
				t.Fatalf("round trip changed entry %d", k)
			}
		}
	})
}
