// Package helper is the second package of the noallocgraph fixture:
// it holds the allocating callee that a root in package noallocgraph
// reaches across the package boundary.
package helper

// Grow allocates: the returned slice escapes.
func Grow(n int) []float64 {
	return make([]float64, n)
}
