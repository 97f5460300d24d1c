package util

import "runtime"

// MaxThreads returns the default degree of parallelism used by
// Javelin when the caller does not specify one.
func MaxThreads() int {
	return runtime.GOMAXPROCS(0)
}
