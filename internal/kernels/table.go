package kernels

import "fmt"

// Table is one complete kernel variant: every numeric inner loop the
// engine dispatches, as plain function values. A later PR registers
// GOARCH-gated assembly variants by adding another Table; callers go
// through the package-level wrappers (or a captured *Table) and never
// notice.
type Table struct {
	// Name identifies the variant ("go-reference", "go-blocked",
	// later e.g. "avx2").
	Name string

	Dot         func(x, y []float64) float64
	SumSq       func(x []float64) float64
	Axpy        func(alpha float64, x, y []float64)
	Scale       func(alpha float64, x []float64)
	SpMVRows    func(rowPtr, colIdx []int, vals, x, y []float64, lo, hi int)
	PanelUpdate func(xb []float64, k int, xr []float64, vals []float64, colIdx []int, lo, hi int)
	// TriLower / TriUpper are whole-sweep substitution kernels over a
	// contiguous row range: forward (rows ascending, sub-diagonal
	// entries [rowPtr[r], diagPos[r])) and backward (rows descending,
	// super-diagonal entries [diagPos[r]+1, rowPtr[r+1]) then division
	// by the diagonal). They exist so the serial substitution paths —
	// the hottest loops in a preconditioner application — pay one
	// dispatch per sweep instead of one per (often 3–8 element) row.
	// Each row is one subtraction chain in index order, so a sweep
	// cut into single-row calls [r, r+1) gives the same bits.
	TriLower func(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int)
	TriUpper func(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int)
	// GatherPerm / ScatterPerm are the permutation copies wrapped
	// around every preconditioner application: y[i] = x[perm[i]] and
	// y[perm[i]] = x[i]. Elementwise — no ordering freedom.
	GatherPerm  func(perm []int, x, y []float64)
	ScatterPerm func(perm []int, x, y []float64)

	// AsmSlots names the kernels this variant backs with
	// architecture-specific assembly; empty for pure-Go variants.
	// Informational — javelin-info prints it so perf numbers are
	// attributable to the exact bodies that produced them.
	AsmSlots []string
}

// variants is the registry of linked-in kernel tables, in preference
// order (later registrations never displace an earlier name). The
// pure-Go tables are always present; archTables appends the
// feature-gated architecture-specific ones (per-arch files), so a
// table whose instructions the running CPU cannot execute is never
// registered at all — Lookup("avx2") on a non-AVX2 machine is an
// error, not a trap waiting to happen.
var variants = append([]*Table{referenceTable, blockedTable}, archTables()...)

// active is the process-wide selected table. It is set once at init
// (defaultVariant is chosen by build tags) and only changed by Select,
// which is a test/bring-up hook — production code captures the table
// at Engine/Runtime construction and must not race a mid-run Select.
var active = mustLookup(defaultVariant)

// Variants lists the linked-in variant names in registry order.
func Variants() []string {
	names := make([]string, len(variants))
	for i, t := range variants {
		names[i] = t.Name
	}
	return names
}

// Variant returns the active variant's name — the value javelin-info
// and the repository benchmark's host stamp report.
func Variant() string { return active.Name }

// Active returns the active kernel table. Constructors that want a
// stable table for their lifetime capture this pointer once.
func Active() *Table { return active }

// Lookup returns the named variant's table.
func Lookup(name string) (*Table, error) {
	for _, t := range variants {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown variant %q (have %v)", name, Variants())
}

// Select makes the named variant active and returns the previously
// active table (so tests can restore it). Not safe to call
// concurrently with running kernels; it exists for cross-variant
// testing and bring-up, not per-solve switching.
func Select(name string) (prev *Table, err error) {
	t, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	prev = active
	active = t
	return prev, nil
}

func mustLookup(name string) *Table {
	t, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return t
}
