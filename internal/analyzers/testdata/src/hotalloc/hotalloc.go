// Package hotalloc is a fixture for noallocgraph's check of a root's
// own body, loaded alone and with no callees to walk: seeded direct
// allocations inside //javelin:noalloc bodies, a waived deliberate
// allocation, and clean forms that must stay silent.
package hotalloc

var (
	sink   []float64
	sinkP  *int
	sinkFn func()
)

// leakySlice allocates a slice that escapes through the package sink.
//
//javelin:noalloc
func leakySlice(n int) {
	s := make([]float64, n) // want `escaping make in //javelin:noalloc func leakySlice`
	sink = s
}

// leakyVar lets a local escape via its address.
//
//javelin:noalloc
func leakyVar() {
	x := 42 // want `heap-moved variable in //javelin:noalloc func leakyVar`
	sinkP = &x
}

// leakyClosure builds a closure that escapes through the package sink.
//
//javelin:noalloc
func leakyClosure(n int) {
	f := func() { sink = append(sink, float64(n)) } // want `escaping func literal in //javelin:noalloc func leakyClosure`
	sinkFn = f
}

// waivedAlloc allocates deliberately; the waiver keeps it silent.
//
//javelin:noalloc
func waivedAlloc(n int) {
	//javelin:alloc-ok deliberate fixture allocation
	sink = make([]float64, n)
}

// cleanSum is allocation-free and must produce no finding.
//
//javelin:noalloc
func cleanSum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// unannotated allocates but carries no directive: out of scope.
func unannotated(n int) {
	sink = make([]float64, n)
}
