// Package epoch is the single pin/publish/recycle primitive behind
// every epoch-versioned value in Javelin: the factor values a
// Refactorize publishes (internal/core) and the matrix values an
// UpdateValues publishes (internal/sparse).
//
// A Cell holds one current generation. Writers build the next
// generation in a buffer no reader can see (Grab), then make it
// current with one atomic pointer swap (Publish); readers Pin the
// current generation, read only that, and Unpin when done. A
// swapped-out generation is retired, and once its reader count drains
// to zero its value is handed back by a later Grab, so a publish-heavy
// steady state ping-pongs between two buffers. Retired epoch headers
// are reused by Publish too, so that steady state allocates nothing.
// Writers never wait for readers.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Epoch is one published generation of a Cell's value.
type Epoch[T any] struct {
	vals T
	// seq is the publication-ordered generation number: 1 for the
	// first Publish, +1 per Publish after it. Plain: written before
	// the publishing swap and immutable while the epoch is current, so
	// a reader that validated its pin sees it fully written.
	seq uint64
	// refs counts pinned readers. A retired epoch is reusable only at
	// zero. Pin's validation window may hold a transient +1 on any
	// header, current, retired or spare, so refs is never reset: a
	// reused header keeps whatever count its stragglers still owe.
	refs atomic.Int64
}

// Vals returns the epoch's value. Callers must not mutate it, and may
// read it only while the epoch is pinned.
func (ep *Epoch[T]) Vals() T { return ep.vals }

// Seq returns the epoch's generation number (1 for the first Publish).
func (ep *Epoch[T]) Seq() uint64 { return ep.seq }

// Cell is an epoch-versioned value. The zero Cell has no current
// epoch: Publish once before any Pin or Seq. Pin, Unpin and Seq are
// safe for any number of concurrent readers; Grab, Publish and Recycle
// are safe for concurrent writers, each taking the Cell's mutex.
type Cell[T any] struct {
	cur atomic.Pointer[Epoch[T]]
	// mu guards the retired and spare lists. It is never taken by
	// readers.
	mu sync.Mutex
	// retired holds swapped-out (or recycled, never-published) epochs
	// whose value waits for its readers to drain.
	retired []*Epoch[T] //javelin:plain-under-mu mu
	// spare holds headers whose value was handed out by Grab, ready
	// for the next Publish or Recycle to reuse.
	spare []*Epoch[T] //javelin:plain-under-mu mu
}

// Pin returns the current epoch with one reader reference held; every
// Pin must be balanced by exactly one Unpin (machine-checked by the
// pinpair analyzer). The increment-then-validate loop closes the race
// against a concurrent Publish: if the epoch was swapped out between
// the load and the increment, its value may already be a writer's
// build target, so the reference is dropped without ever touching the
// value and the pin retries on the new current epoch. A header reused
// by a later Publish is harmless here: validation succeeds only when
// the header is current, and publication order makes its value and
// seq fully written by then.
//
//javelin:noalloc
func (c *Cell[T]) Pin() *Epoch[T] {
	for {
		ep := c.cur.Load()
		ep.refs.Add(1)
		if c.cur.Load() == ep {
			return ep
		}
		ep.refs.Add(-1)
	}
}

// Unpin releases one reader reference taken by Pin.
//
//javelin:noalloc
func (c *Cell[T]) Unpin(ep *Epoch[T]) {
	if ep != nil {
		ep.refs.Add(-1)
	}
}

// Seq returns the generation number of the current epoch, 0 before
// the first Publish. It pins for the read: a header is reused by a
// later Publish once drained, so an unpinned read of its seq would
// race with that rewrite.
func (c *Cell[T]) Seq() uint64 {
	if c.cur.Load() == nil {
		return 0
	}
	ep := c.Pin()
	defer c.Unpin(ep)
	return ep.seq
}

// Grab returns a value no reader can observe, for a writer to build
// the next generation in: a drained retired value when one exists (the
// steady-state recycle), fallback() otherwise — typically a fresh
// allocation, when every retired value is still pinned. Grab never
// waits for readers. The value must come back through Publish or
// Recycle.
func (c *Cell[T]) Grab(fallback func() T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ep := range c.retired {
		if ep.refs.Load() == 0 {
			last := len(c.retired) - 1
			c.retired[i] = c.retired[last]
			c.retired[last] = nil
			c.retired = c.retired[:last]
			c.spare = append(c.spare, ep)
			return ep.vals
		}
	}
	return fallback()
}

// Publish makes v the current epoch, one generation after the epoch it
// replaces. The replaced epoch is retired; its value recycles through
// Grab once its readers drain.
func (c *Cell[T]) Publish(v T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.headerLocked(v)
	ep.seq = 1
	if old := c.cur.Load(); old != nil {
		ep.seq = old.seq + 1
	}
	if old := c.cur.Swap(ep); old != nil {
		c.retired = append(c.retired, old)
	}
}

// Recycle returns a grabbed value that will not be published (a failed
// build) to the retired pool, so the next Grab reuses it. The current
// epoch is untouched.
func (c *Cell[T]) Recycle(v T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired = append(c.retired, c.headerLocked(v))
}

// headerLocked wraps v in a spare header, allocating one only when
// none is left. Caller holds mu.
func (c *Cell[T]) headerLocked(v T) *Epoch[T] {
	var ep *Epoch[T]
	if last := len(c.spare) - 1; last >= 0 {
		ep = c.spare[last]
		c.spare[last] = nil
		c.spare = c.spare[:last]
	} else {
		ep = &Epoch[T]{}
	}
	ep.vals = v
	return ep
}
