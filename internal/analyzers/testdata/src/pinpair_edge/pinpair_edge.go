// Package pinpair_edge is a fixture for the pinpair analyzer's
// control-flow edge cases: select statements, labeled break/continue
// out of nested loops, and early returns inside defer'd closures.
// Stub Engine and SolveContext types mirror internal/core's context
// pool; `// want` comments mark the lines where findings must land.
package pinpair_edge

// SolveContext mirrors internal/core.SolveContext's pinning state.
type SolveContext struct{ acquired bool }

// Engine mirrors internal/core.Engine's context pool surface.
type Engine struct{}

// AcquireContext mirrors the real acquire (pins on acquire).
func (e *Engine) AcquireContext() *SolveContext { return &SolveContext{acquired: true} }

// ReleaseContext mirrors the real release (unpins on release).
func (e *Engine) ReleaseContext(c *SolveContext) { c.acquired = false }

func work(c *SolveContext) {}

// --- violations ---

// selectLeak releases in one clause only: the default clause returns
// with the context still held.
func selectLeak(e *Engine, ch <-chan int) {
	c := e.AcquireContext()
	select {
	case <-ch:
		e.ReleaseContext(c)
	default:
		return // want `AcquireContext at .*pinpair_edge\.go:\d+ is not released on this return path`
	}
}

// returnInNestedLoop exits from two loops deep with the context held.
func returnInNestedLoop(e *Engine, items [][]int) {
	c := e.AcquireContext()
	for _, row := range items {
		for _, v := range row {
			if v < 0 {
				return // want `AcquireContext at .*pinpair_edge\.go:\d+ is not released on this return path`
			}
		}
	}
	e.ReleaseContext(c)
}

// deferEarlyReturnLeak releases inside a deferred closure, but only on
// one path through it: the early return skips the release, so the
// defer does not discharge the pair.
func deferEarlyReturnLeak(e *Engine, fail bool) {
	c := e.AcquireContext()
	defer func() {
		if fail {
			return
		}
		e.ReleaseContext(c)
	}()
} // want `AcquireContext at .*pinpair_edge\.go:\d+ is not released on this return path`

// selectCaseLeak releases in the default clause only: the receive
// clause returns with the context still held.
func selectCaseLeak(e *Engine, ch <-chan int) {
	c := e.AcquireContext()
	select {
	case <-ch:
		return // want `AcquireContext at .*pinpair_edge\.go:\d+ is not released on this return path`
	default:
		e.ReleaseContext(c)
	}
}

// --- compliant forms ---

// selectBalanced releases in every clause.
func selectBalanced(e *Engine, ch <-chan int) {
	c := e.AcquireContext()
	select {
	case v := <-ch:
		_ = v
		e.ReleaseContext(c)
	default:
		e.ReleaseContext(c)
	}
}

// labeledBreakRelease exits both loops through a labeled break and
// releases after the loop: the post-loop path still closes the pair.
func labeledBreakRelease(e *Engine, items [][]int) {
	c := e.AcquireContext()
outer:
	for _, row := range items {
		for range row {
			break outer
		}
	}
	e.ReleaseContext(c)
}

// labeledContinueBalanced acquires and releases within each outer
// iteration, before the inner loop's labeled continue can skip ahead:
// every path through an iteration closes the pair it opened.
func labeledContinueBalanced(e *Engine, items [][]int) {
outer:
	for _, row := range items {
		c := e.AcquireContext()
		work(c)
		e.ReleaseContext(c)
		for _, v := range row {
			if v == 0 {
				continue outer
			}
		}
	}
}

// deferReleaseThenReturn releases on every path through the deferred
// closure — the early return comes after the release.
func deferReleaseThenReturn(e *Engine, fail bool) {
	c := e.AcquireContext()
	defer func() {
		e.ReleaseContext(c)
		if fail {
			return
		}
	}()
	work(c)
}

// selectInLoop holds the context across a select-driven loop and
// releases after the labeled break.
func selectInLoop(e *Engine, ch <-chan int) {
	c := e.AcquireContext()
loop:
	for {
		select {
		case <-ch:
			break loop
		default:
			break loop
		}
	}
	e.ReleaseContext(c)
}
