// Package pinpair is a fixture for the pinpair analyzer. Stub Engine,
// SolveContext and epoch types mirror the epoch-pinning API, and
// each function exercises one violating or compliant pairing pattern;
// `// want` comments mark the lines where findings must land.
package pinpair

import "errors"

// SolveContext mirrors internal/core.SolveContext's pinning state.
type SolveContext struct{ acquired bool }

// Engine mirrors internal/core.Engine's context pool surface.
type Engine struct{}

// AcquireContext mirrors the real acquire (pins on acquire).
func (e *Engine) AcquireContext() *SolveContext { return &SolveContext{acquired: true} }

// ReleaseContext mirrors the real release (unpins on release).
func (e *Engine) ReleaseContext(c *SolveContext) { c.acquired = false }

// ValEpoch mirrors internal/epoch.Epoch (one pinned value
// generation).
type ValEpoch struct{ refs int }

// Cell mirrors internal/epoch.Cell's pinning surface.
type Cell[T any] struct{ cur *ValEpoch }

// Pin mirrors the real handle-returning pin.
func (c *Cell[T]) Pin() *ValEpoch { c.cur.refs++; return c.cur }

// Unpin mirrors the real handle-consuming release.
func (c *Cell[T]) Unpin(ep *ValEpoch) { ep.refs-- }

// VersionedMatrix mirrors the root package's wrapper around the
// matrix-value Cell.
type VersionedMatrix struct{ vals Cell[[]float64] }

// Pin mirrors VersionedMatrix.Pin.
func (m *VersionedMatrix) Pin() *ValEpoch { return m.vals.Pin() }

// Unpin mirrors VersionedMatrix.Unpin.
func (m *VersionedMatrix) Unpin(ep *ValEpoch) { m.vals.Unpin(ep) }

// decoy carries same-named Pin/Unpin methods on an unrelated type; the
// analyzer's receiver-type guard must leave them untracked.
type decoy struct{}

func (d *decoy) Pin() *ValEpoch     { return nil }
func (d *decoy) Unpin(ep *ValEpoch) {}

var errFixture = errors.New("fixture")

func work(c *SolveContext) {}

// --- violations ---

// leakOnError releases on the happy path only: the early error return
// leaks the acquired context.
func leakOnError(e *Engine, fail bool) error {
	c := e.AcquireContext()
	if fail {
		return errFixture // want `AcquireContext at .*pinpair\.go:\d+ is not released on this return path`
	}
	e.ReleaseContext(c)
	return nil
}

// discarded drops the acquired context on the floor.
func discarded(e *Engine) {
	e.AcquireContext() // want `result of AcquireContext discarded`
}

// assignedToBlank leaks through the blank identifier.
func assignedToBlank(e *Engine) {
	_ = e.AcquireContext() // want `result of AcquireContext assigned to _`
}

// cellPinLeakOnBranch unpins on the fall-through path only.
func cellPinLeakOnBranch(c *Cell[[]float64], n int) {
	ep := c.Pin()
	if n > 0 {
		return // want `Pin at .*pinpair\.go:\d+ is not unpinned on this return path`
	}
	c.Unpin(ep)
}

// leakAtEnd never releases at all: flagged at the implicit return when
// the function falls off its end.
func leakAtEnd(e *Engine) {
	c := e.AcquireContext()
	work(c)
} // want `AcquireContext at .*pinpair\.go:\d+ is not released on this return path`

// matrixPinLeakOnError unpins the matrix epoch on the happy path only:
// the early error return keeps the pinned value generation alive
// forever (its buffer can never be recycled).
func matrixPinLeakOnError(vm *VersionedMatrix, fail bool) error {
	ep := vm.Pin()
	if fail {
		return errFixture // want `Pin at .*pinpair\.go:\d+ is not unpinned on this return path`
	}
	vm.Unpin(ep)
	return nil
}

// matrixPinDiscarded drops the pinned epoch on the floor.
func matrixPinDiscarded(vm *VersionedMatrix) {
	vm.Pin() // want `result of Pin discarded`
}

// matrixPinBlank leaks the pinned epoch through the blank identifier.
func matrixPinBlank(vm *VersionedMatrix) {
	_ = vm.Pin() // want `result of Pin assigned to _`
}

// cellPinLeakAtEnd pins a generic Cell and never unpins: flagged at
// the implicit return.
func cellPinLeakAtEnd(c *Cell[[]float64]) {
	ep := c.Pin()
	_ = ep
} // want `Pin at .*pinpair\.go:\d+ is not unpinned on this return path`

// --- compliant forms ---

// deferRelease covers every path, error or not, with one defer.
func deferRelease(e *Engine, fail bool) error {
	c := e.AcquireContext()
	defer e.ReleaseContext(c)
	if fail {
		return errFixture
	}
	return nil
}

// deferFuncLit releases inside a deferred function literal.
func deferFuncLit(e *Engine) {
	c := e.AcquireContext()
	defer func() {
		e.ReleaseContext(c)
	}()
	work(c)
}

// explicitBothPaths releases explicitly before each return.
func explicitBothPaths(e *Engine, fail bool) error {
	c := e.AcquireContext()
	if fail {
		e.ReleaseContext(c)
		return errFixture
	}
	e.ReleaseContext(c)
	return nil
}

// cellPinDefer covers a Cell pin with a defer.
func cellPinDefer(c *Cell[[]float64], fail bool) error {
	ep := c.Pin()
	defer c.Unpin(ep)
	if fail {
		return errFixture
	}
	return nil
}

// holder models the Applier pattern: ownership of the acquired context
// transfers out of the function, so no release is required here.
type holder struct{ c *SolveContext }

func transfer(e *Engine) *holder {
	return &holder{c: e.AcquireContext()}
}

// releaseParam releases a context it did not acquire: closing an
// untracked handle is always fine.
func releaseParam(e *Engine, c *SolveContext) {
	e.ReleaseContext(c)
}

// loopBalanced acquires and releases inside a loop body.
func loopBalanced(e *Engine, n int) {
	for i := 0; i < n; i++ {
		c := e.AcquireContext()
		work(c)
		e.ReleaseContext(c)
	}
}

// switchBalanced releases in every arm of an exhaustive switch.
func switchBalanced(e *Engine, n int) {
	c := e.AcquireContext()
	switch n {
	case 0:
		e.ReleaseContext(c)
	default:
		e.ReleaseContext(c)
	}
}

// matrixPinDefer covers every path, error or not, with one defer —
// the canonical whole-solve pin bracket.
func matrixPinDefer(vm *VersionedMatrix, fail bool) error {
	ep := vm.Pin()
	defer vm.Unpin(ep)
	if fail {
		return errFixture
	}
	return nil
}

// cellPinExplicit unpins explicitly before each return.
func cellPinExplicit(c *Cell[[]float64], fail bool) error {
	ep := c.Pin()
	if fail {
		c.Unpin(ep)
		return errFixture
	}
	c.Unpin(ep)
	return nil
}

// unpinParam releases an epoch pinned elsewhere: closing an untracked
// handle is always fine (the Applier-style ownership transfer).
func unpinParam(vm *VersionedMatrix, ep *ValEpoch) {
	vm.Unpin(ep)
}

// decoyPin exercises the receiver-type guard: Pin on an unrelated
// type is not an epoch pin and must not be tracked or flagged.
func decoyPin(d *decoy) {
	d.Pin()
}
