package epoch

import (
	"fmt"
	"sync"
	"testing"
)

const testLen = 64

// newCell returns a Cell whose first epoch holds testLen copies of 1.
func newCell() *Cell[[]float64] {
	c := &Cell[[]float64]{}
	c.Publish(fill(make([]float64, testLen), 1))
	return c
}

func fill(v []float64, x float64) []float64 {
	for i := range v {
		v[i] = x
	}
	return v
}

func alloc() []float64 { return make([]float64, testLen) }

// publish runs one writer step: grab, fill with x, publish.
func publish(c *Cell[[]float64], x float64) {
	c.Publish(fill(c.Grab(alloc), x))
}

func TestCellSeq(t *testing.T) {
	var c Cell[[]float64]
	if got := c.Seq(); got != 0 {
		t.Fatalf("Seq before first Publish = %d, want 0", got)
	}
	c.Publish(alloc())
	publish(&c, 2)
	if got := c.Seq(); got != 2 {
		t.Fatalf("Seq after two publishes = %d, want 2", got)
	}
	// A recycled (failed) build leaves the current epoch untouched.
	c.Recycle(fill(c.Grab(alloc), 99))
	ep := c.Pin()
	defer c.Unpin(ep)
	if ep.Seq() != 2 || ep.Vals()[0] != 2 {
		t.Fatalf("after Recycle: seq %d val %g, want 2, 2", ep.Seq(), ep.Vals()[0])
	}
}

// TestCellRecycle proves the two-buffer steady state: with no readers
// pinned, repeated publishes ping-pong between the same two value
// arrays and the same two epoch headers instead of allocating per
// generation.
func TestCellRecycle(t *testing.T) {
	c := newCell()
	bufs := map[*float64]bool{}
	headers := map[*Epoch[[]float64]]bool{}
	for g := 2; g < 22; g++ {
		publish(c, float64(g))
		ep := c.Pin()
		bufs[&ep.Vals()[0]] = true
		headers[ep] = true
		c.Unpin(ep)
	}
	if len(bufs) > 2 || len(headers) > 2 {
		t.Fatalf("saw %d buffers and %d headers across 20 publishes, want <= 2 each", len(bufs), len(headers))
	}
}

// TestCellPinBlocksRecycle proves a held pin keeps its buffer out of
// the recycle pool: epochs published while an old epoch is pinned
// must not scribble over it.
func TestCellPinBlocksRecycle(t *testing.T) {
	c := newCell()
	ep := c.Pin()
	for g := 2; g <= 6; g++ {
		publish(c, float64(g))
	}
	for k, val := range ep.Vals() {
		if val != 1 {
			t.Fatalf("pinned epoch-1 buffer overwritten at %d: %g", k, val)
		}
	}
	c.Unpin(ep)
}

// TestCellConcurrentHammer races pinned readers against a writer that
// publishes and, every seventh generation, recycles a failed build.
// Every published epoch's values are one constant (its seq), so any
// torn read — a buffer mixing generations, or a recycled buffer or
// reused header overwritten under a reader — shows up as a
// non-constant snapshot or a value that disagrees with the seq.
func TestCellConcurrentHammer(t *testing.T) {
	c := newCell()
	const (
		readers = 8
		writes  = 400
		reads   = 400
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w < writes; w++ {
			if w%7 == 6 {
				c.Recycle(fill(c.Grab(alloc), -1))
				continue
			}
			publish(c, float64(c.Seq()+1))
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				ep := c.Pin()
				want := float64(ep.Seq())
				for k, val := range ep.Vals() {
					if val != want {
						c.Unpin(ep)
						errc <- fmt.Errorf("torn read: epoch %d entry %d = %g", ep.Seq(), k, val)
						return
					}
				}
				c.Unpin(ep)
				_ = c.Seq()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if want := uint64(1 + writes - writes/7); c.Seq() != want {
		t.Fatalf("final Seq = %d, want %d", c.Seq(), want)
	}
}

// TestCellConcurrentWriters races several writers (Grab, Publish and
// Recycle take the Cell's mutex, not a caller's) against pinned
// readers. Each write fills its buffer with a value unique to it, so a
// buffer handed to two writers at once shows up as a non-constant
// snapshot; every publish must advance Seq by exactly one.
func TestCellConcurrentWriters(t *testing.T) {
	c := newCell()
	const (
		writers = 3
		writes  = 200
		readers = 4
		reads   = 400
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				publish(c, float64(10000*(w+1)+i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < reads; i++ {
				ep := c.Pin()
				seq, vals := ep.Seq(), ep.Vals()
				for k, val := range vals {
					if val != vals[0] {
						c.Unpin(ep)
						errc <- fmt.Errorf("torn read: epoch %d entry %d = %g, entry 0 = %g", seq, k, val, vals[0])
						return
					}
				}
				c.Unpin(ep)
				if seq < last {
					errc <- fmt.Errorf("Seq went backwards: %d after %d", seq, last)
					return
				}
				last = seq
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if want := uint64(1 + writers*writes); c.Seq() != want {
		t.Fatalf("final Seq = %d, want %d", c.Seq(), want)
	}
}
