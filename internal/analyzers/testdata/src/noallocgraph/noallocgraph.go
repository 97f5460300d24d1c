// Package noallocgraph is a fixture for the noallocgraph module
// analyzer, loaded with ./... together with its helper package:
// //javelin:noalloc roots whose static call graphs reach allocating
// helpers — directly, through a clean intermediate and in another
// package — a root that also allocates in its own body, plus every
// accepted edge form (noalloc callee, doc-level waiver, call-site
// waiver, transitively clean callee, a call spawned by a go
// statement); `// want` comments mark the lines where findings must
// land. The own-body check alone has the hotalloc fixture.
package noallocgraph

import "javelin/internal/analyzers/testdata/src/noallocgraph/helper"

var sink []float64

// leakyHelper allocates: the returned slice escapes.
func leakyHelper(n int) []float64 {
	return make([]float64, n)
}

// spill allocates: the local is moved to the heap. Kept out of line
// so the escape diagnostic stays attributed here — inlined, the heap
// move would be reported in relay's body and the chain would stop one
// hop short (which is also correct, just a different witness).
//
//go:noinline
func spill() *float64 {
	v := 4.0
	return &v
}

// cleanHelper is allocation-free.
func cleanHelper(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// deepClean is clean and calls only clean code.
func deepClean(x []float64) float64 { return cleanHelper(x) }

// relay is clean itself but reaches the allocating spill, so a noalloc
// root walking through it is flagged here, at the offending call site.
func relay() *float64 {
	return spill() // want `//javelin:noalloc badDeep reaches spill \(badDeep -> relay -> spill\), which allocates`
}

// leakyRow allocates: the returned slice escapes.
func leakyRow(n int) []int {
	return make([]int, n)
}

// --- violations ---

// badRoot reaches an allocating helper with no annotation or waiver.
//
//javelin:noalloc
func badRoot(n int) float64 {
	tmp := leakyHelper(n) // want `//javelin:noalloc badRoot reaches leakyHelper \(badRoot -> leakyHelper\), which allocates`
	return cleanHelper(tmp)
}

// badDeep reaches an allocator two calls down, through clean relay;
// the finding lands on relay's call into spill (see above).
//
//javelin:noalloc
func badDeep() float64 {
	return *relay()
}

// badCross reaches an allocating helper in another package, which is
// a different *types.Func object here than where it is declared.
//
//javelin:noalloc
func badCross(n int) float64 {
	return cleanHelper(helper.Grow(n)) // want `//javelin:noalloc badCross reaches Grow \(badCross -> Grow\), which allocates`
}

// badBoth allocates in its own body and reaches an allocating helper:
// it gets a finding for each.
//
//javelin:noalloc
func badBoth(n int) int {
	s := make([]float64, n) // want `escaping make in //javelin:noalloc func badBoth`
	sink = s
	return len(leakyRow(n)) // want `//javelin:noalloc badBoth reaches leakyRow \(badBoth -> leakyRow\), which allocates`
}

// --- accepted edge forms ---

// spawned allocates, but only ever on a goroutine of its own.
func spawned(n int) []float64 {
	return make([]float64, n)
}

// spawner runs spawned on a goroutine of its own, off the root's path.
//
//javelin:noalloc
func spawner(n int) {
	go spawned(n)
}

// sum is a noalloc root of its own: edges into it stop (its body and
// callees are checked from it).
//
//javelin:noalloc
func sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// coldSetup allocates deliberately; the doc-level waiver accepts the
// whole callee as a cold path.
//
//javelin:alloc-ok fixture cold path: allocates by design
func coldSetup(n int) []float64 {
	return make([]float64, n)
}

// goodRoot's every edge is accepted: a noalloc callee, a doc-waived
// callee, a transitively clean callee, and a call-site-waived handoff.
//
//javelin:noalloc
func goodRoot(n int, x []float64) float64 {
	buf := coldSetup(n)
	//javelin:alloc-ok fixture call-site waiver: deliberate handoff
	extra := leakyHelper(n)
	return sum(buf) + deepClean(x) + cleanHelper(extra)
}
