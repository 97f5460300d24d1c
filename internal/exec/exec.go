// Package exec is Javelin's persistent execution runtime: one fixed
// set of worker goroutines serving the engine's one parallel
// construct, a region of pieces claimed in index order, each run as
// body(lane, i), with an optional count gate (Phases) or none (For).
//
// This is the "specialized light weight tasking library" of the paper
// generalized into a shared substrate: every SpMV, reduction, factor
// scatter, factor stage and phased triangular sweep of every engine
// runs here instead of spawning goroutines per call. A flat loop (a
// matvec, a reduction, the factor scatter) is a For region whose
// pieces are contiguous row ranges its caller cuts. A phased sweep is
// one Phases region: its phases are the levels and its pieces each
// level's row ranges (Anderson & Saad's level scheduling, the barriers
// inside one region). A factorization pass after its scatter is one
// Phases region too: the upper levels' row ranges, then the lower
// rows, then the corner groups, each piece run on the scratch of the
// lane it is handed. Every piece is known before the region starts and
// none spawns more work, so no work stealing is needed. Regions are
// claim-based (atomic piece dealing over persistent workers), so a
// region costs two mutex hops and a handful of atomics instead of
// goroutine creation. A worker with nothing to claim keeps polling for
// IdleSpin after its last claim, so the next region of a solve finds
// it running, and only then parks: a Runtime left idle for longer
// holds no P.
//
// # Concurrency model
//
// A Runtime is safe for concurrent use: any number of goroutines may
// open regions (For/Phases) at the same time; their pieces interleave
// over the shared workers and every caller helps execute its own
// region, so a region always completes even with zero free workers.
// That holds only because no body waits on another: nothing
// guarantees that two pieces, of one region or of two, ever run at
// the same time, so a body must not wait on another one to make
// progress.
//
// A gate allows exactly one wait, and it sits outside the bodies and
// before the claim: a participant claims piece i only once gate[i]
// pieces of its region have completed, and holds no piece while it
// waits. Pieces are claimed in index order and gate[i] never exceeds
// i, so every piece waited on was claimed earlier, by a participant
// that is running it and waits on nothing. No participant waits on a
// lane that has not joined or on one that is itself waiting, so the
// caller can run every piece alone and a gated region completes like
// any other.
//
// Every body also learns which lane runs it. The caller is lane 0
// and each worker that joins takes the next number of the region's
// join count, which never goes down. A participant leaves only once
// every piece is claimed, and no worker joins after that, so the
// lanes of one region are distinct and below its participant cap.
//
// # Metrics
//
// Every Runtime meters its own activity — regions, pieces run,
// park/wake churn — through always-on counters; Stats() returns a
// snapshot and Stats.Sub gives per-phase deltas. See stats.go.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime is a persistent worker pool serving regions of pieces (For,
// and Phases with a gate), all jobs on one open-region list that idle
// workers join. Create with New, share freely, release with Close. The
// zero value is not usable.
type Runtime struct {
	workers int // worker goroutine count == Parallelism()-1

	mu       sync.Mutex
	cond     *sync.Cond // workers park here
	jobs     []*job     //javelin:plain-under-mu mu
	sleeping int        //javelin:plain-under-mu mu
	closed   bool       //javelin:plain-under-mu mu

	// Park-path counters, bumped only where mu is already held, so
	// metering the park path costs it no atomic RMW.
	pkSpinToParks uint64 //javelin:plain-under-mu mu
	pkParks       uint64 //javelin:plain-under-mu mu
	pkWakes       uint64 //javelin:plain-under-mu mu

	wg sync.WaitGroup

	// stats holds the region counters Stats() reports, in an
	// allocation of its own so they share no cache line with mu. See
	// stats.go.
	stats *laneStats

	jobPool sync.Pool
}

// New creates a runtime providing the given total parallelism:
// parallelism-1 persistent workers plus the calling goroutine of each
// region (callers always help run their own regions). parallelism <=
// 0 means GOMAXPROCS. New(1) spawns no goroutines at all; every
// region runs inline.
func New(parallelism int) *Runtime {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runtime{workers: parallelism - 1}
	r.cond = sync.NewCond(&r.mu)
	r.stats = new(laneStats)
	r.jobPool.New = func() any {
		j := new(job)
		j.cond = sync.NewCond(&j.mu)
		return j
	}
	r.wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go r.workerLoop()
	}
	return r
}

var defaultRT struct {
	once sync.Once
	rt   *Runtime
}

// Default returns the lazily created process-wide runtime, sized to
// GOMAXPROCS at first use. It is never closed; its workers park once
// idle for IdleSpin. Every component not handed an explicit Runtime
// runs here.
func Default() *Runtime {
	//javelin:alloc-ok one-time: the process-wide runtime is created on first use
	defaultRT.once.Do(func() { defaultRT.rt = New(0) })
	return defaultRT.rt
}

// Parallelism returns the total lane count (workers + caller).
func (r *Runtime) Parallelism() int { return r.workers + 1 }

// Close shuts down the workers after pending work drains. Regions
// opened after Close still complete — the caller runs them alone — so
// a closed Runtime degrades rather than breaks. Close is idempotent
// and safe for concurrent use.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// ---------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------

// job is one open region: pieces 0 to blocks-1, claimed off an atomic
// cursor in index order by the caller and any workers that join, each
// run as body(lane, i). When gate is set, piece i is claimed only once
// gate[i] pieces have completed. limit caps the number of simultaneous
// participants (the region's requested thread count).
type job struct {
	blocks int64
	limit  int32
	gate   []int32
	body   func(lane, i int)

	next      atomic.Int64 // next unclaimed piece
	remaining atomic.Int64 // pieces not yet completed
	active    atomic.Int32 // current participants (joins under r.mu)
	joins     atomic.Int32 // workers that have joined; never decremented

	// Completion parking for the caller: after a short spin it waits
	// on cond; the participant whose exit completes the region
	// broadcasts. A stale broadcast from a pooled job's previous life
	// is a benign spurious wake (waiters recheck the atomics).
	mu   sync.Mutex
	cond *sync.Cond
}

// done reports region completion: every piece run and every
// participant gone.
func (j *job) done() bool {
	return j.remaining.Load() == 0 && j.active.Load() == 0
}

// awaitDone spins briefly then parks until done.
func (j *job) awaitDone() {
	for spins := 0; !j.done(); spins++ {
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		j.mu.Lock()
		for !j.done() {
			j.cond.Wait()
		}
		j.mu.Unlock()
		return
	}
}

// For runs body(lane, i) once for each piece i in [0, n): a Phases
// region with no gate, whose participants claim the pieces in index
// order as soon as they are free. A caller with a flat loop over rows
// cuts it into a few contiguous pieces itself, piece i covering rows
// [i*rows/n, (i+1)*rows/n), so each participant's rows stay
// contiguous (first-touch friendly). maxPar and lane are as for
// Phases. Blocks until every piece has completed.
func (r *Runtime) For(n, maxPar int, body func(lane, i int)) {
	r.runJob(nil, n, maxPar, body)
}

// Phases runs body(lane, i) once for each piece i in [0, len(gate)),
// piece i starting only once gate[i] pieces have completed. With
// gate[i] the number of pieces in the phases before piece i's, one
// region runs phase after phase with a barrier between each. gate[i]
// must not exceed i. Participants claim pieces in index order, each
// only once its gate has opened, so one waits only on pieces already
// claimed and running (see the package doc), and maxPar caps their
// number (<= 0 means the runtime's full parallelism). lane names the
// participant running the piece: 0 for the caller, and below
// min(maxPar, Parallelism(), len(gate)) for every participant. No two
// participants share a lane, so bodies may own scratch slots indexed
// by lane. With one participant the pieces run in order on the
// caller, as lane 0. Blocks until every piece has completed.
func (r *Runtime) Phases(gate []int32, maxPar int, body func(lane, i int)) {
	r.runJob(gate, len(gate), maxPar, body)
}

// runJob runs a region of n pieces, gated by gate when it is set. With
// one participant the caller runs them alone. Otherwise it publishes
// the region, participates, then blocks until every piece has
// completed and every participant has left, after which the job
// returns to the pool.
func (r *Runtime) runJob(gate []int32, n, maxPar int, body func(lane, i int)) {
	if n <= 0 {
		return
	}
	r.stats.regions.Add(1)
	par := min(r.workers+1, n)
	if maxPar > 0 {
		par = min(par, maxPar)
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		r.stats.chunks.Add(1)
		return
	}
	j := r.jobPool.Get().(*job)
	j.blocks, j.limit, j.gate, j.body = int64(n), int32(par), gate, body
	j.next.Store(0)
	j.remaining.Store(j.blocks)
	j.active.Store(1) // the caller, lane 0
	j.joins.Store(0)
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	if r.sleeping > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			// A body panicked on the caller. Its piece never completes,
			// so a gate behind it would never open: close the cursor so
			// every worker leaves at its next claim, and drop the job
			// unpooled. The panic goes on up with its stack.
			j.next.Store(j.blocks)
			r.unregister(j)
		}
	}()
	j.runClaims(0)
	returned = true

	// Unregister so no worker can newly join, then wait out the ones
	// already in (join happens under r.mu, so after removal the active
	// count only decreases).
	r.unregister(j)
	j.awaitDone()
	// Every piece was claimed and run exactly once, so the region's
	// whole piece count is charged here rather than on the claim path
	// (see runClaims).
	r.stats.chunks.Add(uint64(n))
	j.gate, j.body = nil, nil
	r.jobPool.Put(j)
}

// unregister removes j from the open-region list, so no worker can
// newly join it.
func (r *Runtime) unregister(j *job) {
	r.mu.Lock()
	for i, q := range r.jobs {
		if q == j {
			last := len(r.jobs) - 1
			r.jobs[i] = r.jobs[last]
			r.jobs[last] = nil
			r.jobs = r.jobs[:last]
			break
		}
	}
	r.mu.Unlock()
}

// runClaims runs pieces off j's cursor until none remain, as the
// participant of the given lane. The participant must already be
// counted in j.active; it uncounts itself on the way out (its last
// touch of j). Deliberately uninstrumented: any counter kept live
// across the body call would be spilled and reloaded around every
// piece (Go's ABI has no callee-saved registers); runJob charges the
// region's whole piece count instead.
func (j *job) runClaims(lane int) {
	for {
		var i int64
		if j.gate != nil {
			i = j.claimOpen()
		} else {
			i = j.next.Add(1) - 1
		}
		if i >= j.blocks {
			break
		}
		j.body(lane, int(i))
		if j.remaining.Add(-1) == 0 {
			break
		}
	}
	if j.active.Add(-1) == 0 && j.remaining.Load() == 0 {
		// This exit completed the region; wake a parked caller.
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// gateSpins is how many times a participant of a gated region rereads
// the completion count before it starts yielding its P between reads.
const gateSpins = 256

// claimOpen claims the next piece of a gated region once its gate has
// opened, or returns a value >= j.blocks when every piece is claimed.
// The wait comes before the claim, so a participant never holds a
// piece while it waits: one that is descheduled mid-wait delays
// nobody. It spins briefly, then yields with runtime.Gosched between
// reads.
func (j *job) claimOpen() int64 {
	for spins := 0; ; spins++ {
		b := j.next.Load()
		if b >= j.blocks {
			return b
		}
		if j.blocks-j.remaining.Load() >= int64(j.gate[b]) {
			if j.next.CompareAndSwap(b, b+1) {
				return b
			}
			continue
		}
		if spins >= gateSpins {
			runtime.Gosched()
		}
	}
}

// claimableLocked reports whether a worker may join j (r.mu held).
func (j *job) claimableLocked() bool {
	return j.next.Load() < j.blocks && j.active.Load() < j.limit
}

// ---------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------

// IdleSpin is how long an idle worker keeps polling for a region after
// its last claim or wake before it parks. A parked worker takes about
// a hundred microseconds to start a piece once woken, longer than most
// regions of a solve (one matvec, one reduction, one phased sweep), and
// the gaps between those regions are shorter than this budget, so the
// worker stays running through a whole solve. A budget counted in polls
// lasts however long runtime.Gosched takes, which varies tenfold with
// what else is runnable; a wall-clock one does not.
const IdleSpin = 500 * time.Microsecond

// step joins the first open region that still has unclaimed pieces
// and runs claims there. ran is false when none exists; closed then
// reports whether the runtime has been closed, read under the same
// lock, so an idle worker leaves without waiting out its spin.
func (r *Runtime) step() (ran, closed bool) {
	r.mu.Lock()
	for _, j := range r.jobs {
		if j.claimableLocked() {
			j.active.Add(1) // join under r.mu (see runJob)
			lane := int(j.joins.Add(1))
			r.mu.Unlock()
			j.runClaims(lane)
			return true, false
		}
	}
	closed = r.closed
	r.mu.Unlock()
	return false, closed
}

// hasWorkLocked reports whether any work is visible (r.mu held).
func (r *Runtime) hasWorkLocked() bool {
	for _, j := range r.jobs {
		if j.claimableLocked() {
			return true
		}
	}
	return false
}

// workerLoop polls for regions, yielding its P between polls, until
// IdleSpin has passed since its last claim or wake, then parks until a
// region opens. It returns once the runtime is closed and no region is
// left to join.
func (r *Runtime) workerLoop() {
	defer r.wg.Done()
	idleSince := time.Now()
	for {
		ran, closed := r.step()
		if ran {
			idleSince = time.Now()
			continue
		}
		if !closed && time.Since(idleSince) < IdleSpin {
			runtime.Gosched()
			continue
		}
		// Idle budget spent (or the runtime closed): park until new
		// work arrives, or exit if the runtime closed and nothing is
		// pending. The park-path counters are plain fields bumped
		// under the lock we already hold (see their declaration).
		r.mu.Lock()
		r.pkSpinToParks++
		if r.closed && !r.hasWorkLocked() {
			r.mu.Unlock()
			return
		}
		if !r.hasWorkLocked() && !r.closed {
			r.sleeping++
			r.pkParks++
			r.cond.Wait()
			r.pkWakes++
			r.sleeping--
		}
		r.mu.Unlock()
		idleSince = time.Now()
	}
}
