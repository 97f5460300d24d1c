package order

import (
	"slices"
	"testing"

	"javelin/internal/sparse"
)

// FuzzOrdering builds a small square pattern from the fuzz input and
// checks that ComputeND and ComputeRCM each return a permutation of
// [0, n) that Perm.Validate accepts, and the same one on a second
// call. data[0] gives the order n (1-160). data[1]'s flags add: bit 0
// the full diagonal (otherwise rows keep only the diagonals the pairs
// give them), bit 1 a dense row data[2] mod n, bit 2 a path through
// the first half of the vertices (a connected part larger than ND's
// 64-vertex leaves), bit 3 a second path through the second half that
// skips every third vertex (more components and isolated vertices).
// Each following pair (i, j) adds the entry (i mod n, j mod n), which
// may be one-sided. The seed corpus is under
// testdata/fuzz/FuzzOrdering.
func FuzzOrdering(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%160
		flags := data[1]
		coo := sparse.NewCOO(n, n, 4*n+len(data))
		if flags&1 != 0 {
			for i := 0; i < n; i++ {
				coo.Add(i, i, 1)
			}
		}
		if flags&2 != 0 {
			r := int(data[2]) % n
			for j := 0; j < n; j++ {
				coo.Add(r, j, 1)
			}
		}
		if flags&4 != 0 {
			for i := 0; i+1 < n/2; i++ {
				coo.AddSym(i, i+1, 1)
			}
		}
		if flags&8 != 0 {
			for i := n / 2; i+1 < n; i++ {
				if i%3 != 0 {
					coo.AddSym(i, i+1, 1)
				}
			}
		}
		for p := data[3:]; len(p) >= 2; p = p[2:] {
			coo.Add(int(p[0])%n, int(p[1])%n, 1)
		}
		a := coo.ToCSR()
		for _, m := range []Method{ND, RCM} {
			p := Compute(m, a)
			if len(p) != n {
				t.Fatalf("%v: length %d, want %d", m, len(p), n)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if again := Compute(m, a); !slices.Equal(p, again) {
				t.Fatalf("%v: a second call gave %v, the first %v", m, again, p)
			}
		}
	})
}
