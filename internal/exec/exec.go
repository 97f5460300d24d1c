// Package exec is Javelin's persistent execution runtime: one fixed
// set of worker goroutines serving every parallel construct in the
// engine — data-parallel loops (For, ForDynamic), per-worker-scratch
// fork-join (Ranges), work-stealing task batches (Batch, absorbing
// the former taskpool package), and gang-scheduled sweeps (Gang) for
// the point-to-point synchronized stages that need all lanes running
// at once.
//
// This is the "specialized light weight tasking library" of the paper
// generalized into a shared substrate: before, every ParallelFor call
// spawned fresh goroutines and joined a full barrier — on every SpMV
// and every level-set sweep of every Krylov iteration — while the SR
// factor stage kept a private task pool per engine. Here one Runtime
// outlives all of them; parallel regions are claim-based (atomic
// block dealing over persistent workers), so a region costs two mutex
// hops and a handful of atomics instead of goroutine creation, and an
// idle Runtime parks its workers and costs nothing.
//
// # Concurrency model
//
// A Runtime is safe for concurrent use: any number of goroutines may
// open parallel regions (For/ForDynamic/Ranges/Batch) at the same
// time; their blocks interleave over the shared workers and every
// caller helps execute its own region, so a region always completes
// even with zero free workers. Gang is the exception that needs real
// concurrency (its pieces spin-wait on each other), so gangs go
// through admission control: a gang starts only when enough workers
// are uncommitted, and waits for capacity otherwise (admission is
// capacity-ordered, not FIFO — see the ROADMAP fairness item) —
// correct under any amount of sharing, at worst serialized, never
// deadlocked. Loop/batch bodies must not
// wait on other iterations of the same region; bodies that
// synchronize with each other belong in Gang.
//
// # Metrics
//
// Every Runtime meters its own activity — regions, chunk claims,
// steals, gang admissions and queue wait, park/wake churn — through
// always-on per-worker counter shards; Stats() aggregates them into a
// snapshot and Stats.Sub gives per-phase deltas. See stats.go.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime is a persistent worker pool. Create with New, share freely,
// release with Close. The zero value is not usable.
type Runtime struct {
	workers int // worker goroutine count == Parallelism()-1

	mu        sync.Mutex
	cond      *sync.Cond // workers park here
	gangCond  *sync.Cond // Gang admission waits here
	jobs      []*job     //javelin:plain-under-mu mu
	gangQ     gangQueue  //javelin:plain-under-mu mu
	committed int        //javelin:plain-under-mu mu
	sleeping  int        //javelin:plain-under-mu mu
	closed    bool       //javelin:plain-under-mu mu

	// Park-path counters, guarded by mu and incremented only where it
	// is already held. The spin-to-park transition is timing-bistable
	// on saturated machines — whether a worker parks or catches the
	// next region depends on tens of nanoseconds — and even a single
	// uncontended atomic RMW there measurably tips it; plain
	// increments under the already-taken lock are free.
	pkSpinToParks uint64 //javelin:plain-under-mu mu
	pkStealFails  uint64 //javelin:plain-under-mu mu
	pkParks       uint64 //javelin:plain-under-mu mu
	pkWakes       uint64 //javelin:plain-under-mu mu

	deques []deque      // batch task deques (one per worker, min one)
	nextQ  atomic.Int64 // round-robin cursor for batch submits
	wg     sync.WaitGroup

	// stats holds one padded counter shard per worker plus a final
	// shard shared by external callers; Stats() sums them. See
	// stats.go.
	stats []laneStats

	jobPool sync.Pool

	// overhead is the lazily calibrated per-region cost used by the
	// adaptive parallel cutoff (see cutoff.go).
	overhead overheadState
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
	r.gangCond = sync.NewCond(&r.mu)
	nd := r.workers
	if nd < 1 {
		nd = 1
	}
	r.deques = make([]deque, nd)
	r.stats = make([]laneStats, r.workers+1)
	r.jobPool.New = func() any {
		j := new(job)
		j.cond = sync.NewCond(&j.mu)
		return j
	}
	r.wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go r.workerLoop(w)
	}
	return r
}

var defaultRT struct {
	once sync.Once
	rt   *Runtime
}

// Default returns the lazily created process-wide runtime, sized to
// GOMAXPROCS at first use. It is never closed; its workers park when
// idle. Every component not handed an explicit Runtime runs here.
func Default() *Runtime {
	defaultRT.once.Do(func() { defaultRT.rt = New(0) })
	return defaultRT.rt
}

// Parallelism returns the total lane count (workers + caller).
func (r *Runtime) Parallelism() int { return r.workers + 1 }

// Close shuts down the workers after pending work drains. Regions
// opened after Close still complete — the caller runs them alone (and
// Gang falls back to spawning) — so a closed Runtime degrades rather
// than breaks. Close is idempotent and safe for concurrent use.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.gangCond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// ---------------------------------------------------------------------
// Claim-based parallel loops
// ---------------------------------------------------------------------

// job is one open parallel region: n iterations (or pieces) cut into
// blocks of chunk, claimed off an atomic cursor by the caller and any
// workers that join. limit caps the number of simultaneous
// participants (the region's requested thread count).
type job struct {
	n      int
	chunk  int
	blocks int64
	limit  int32
	body   func(i int)
	// rangeBody, when set, selects Ranges mode: one call per block
	// (piece) instead of per iteration, empty pieces skipped.
	rangeBody func(piece, lo, hi int)

	next      atomic.Int64 // next unclaimed block index
	remaining atomic.Int64 // blocks not yet completed
	active    atomic.Int32 // current participants (joins under r.mu)

	// Completion parking for the caller: after a short spin it waits
	// on cond; the participant whose exit completes the region
	// broadcasts. A stale broadcast from a pooled job's previous life
	// is a benign spurious wake (waiters recheck the atomics).
	mu   sync.Mutex
	cond *sync.Cond
}

// done reports region completion: every block executed and every
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

// For runs body(i) for i in [0, n) with static block dealing: the
// range is cut into min(maxPar, capacity) contiguous blocks, so a
// participant's iterations stay contiguous (first-touch friendly).
// maxPar <= 0 means the runtime's full parallelism. Blocks until the
// region completes.
func (r *Runtime) For(n, maxPar int, body func(i int)) {
	r.loop(n, maxPar, 0, body)
}

// ForDynamic runs body(i) for i in [0, n) with dynamic scheduling in
// blocks of chunk iterations, mirroring OpenMP schedule(dynamic,
// chunk) (the paper uses chunk=1 for the imbalanced lower-stage
// rows). maxPar <= 0 means full parallelism.
func (r *Runtime) ForDynamic(n, maxPar, chunk int, body func(i int)) {
	if chunk < 1 {
		chunk = 1
	}
	r.loop(n, maxPar, chunk, body)
}

func (r *Runtime) loop(n, maxPar, chunk int, body func(i int)) {
	if n <= 0 {
		return
	}
	r.lane(-1).regions.Add(1)
	par := r.workers + 1
	if maxPar > 0 && maxPar < par {
		par = maxPar
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		r.lane(-1).chunks.Add(1)
		return
	}
	if chunk <= 0 { // static: one block per participant
		chunk = (n + par - 1) / par
	}
	j := r.jobPool.Get().(*job)
	j.n, j.chunk, j.limit = n, chunk, int32(par)
	j.blocks = int64((n + chunk - 1) / chunk)
	j.body, j.rangeBody = body, nil
	r.runJob(j)
}

// Ranges splits [0, n) into exactly pieces contiguous ranges and runs
// body(piece, lo, hi) once per non-empty piece; empty pieces (when
// pieces > n) are skipped entirely. Piece indices are distinct, so
// bodies may own scratch slots indexed by piece. Unlike Gang, pieces
// are not guaranteed to run simultaneously — bodies must not wait on
// one another.
func (r *Runtime) Ranges(n, pieces int, body func(piece, lo, hi int)) {
	if pieces < 1 {
		pieces = 1
	}
	if n < 0 {
		n = 0
	}
	if n > 0 {
		r.lane(-1).regions.Add(1)
	}
	chunk := (n + pieces - 1) / pieces
	if chunk < 1 {
		chunk = 1
	}
	run := func(piece int) bool {
		lo := piece * chunk
		if lo >= n {
			return false
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(piece, lo, hi)
		return true
	}
	if pieces == 1 || r.workers == 0 {
		for p := 0; p < pieces; p++ {
			if !run(p) {
				break
			}
			r.lane(-1).chunks.Add(1)
		}
		return
	}
	j := r.jobPool.Get().(*job)
	j.n, j.chunk, j.limit = n, chunk, int32(pieces)
	j.blocks = int64(pieces)
	j.body = nil
	j.rangeBody = body
	r.runJob(j)
}

// runJob publishes j, participates, then blocks until every block has
// completed and every participant has left, after which j returns to
// the pool.
func (r *Runtime) runJob(j *job) {
	j.next.Store(0)
	j.remaining.Store(j.blocks)
	j.active.Store(1) // the caller
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	if r.sleeping > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()

	j.runClaims()

	// Unregister so no worker can newly join, then wait out the ones
	// already in (join happens under r.mu, so after removal the active
	// count only decreases).
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
	j.awaitDone()
	// Every block was claimed and executed exactly once, so the
	// region's whole block count is charged here rather than on the
	// claim path (see runClaims). Ranges regions with pieces > n have
	// trailing empty pieces that never ran a body; exclude them so
	// Chunks matches the inline path.
	charged := j.blocks
	if j.rangeBody != nil {
		if ne := int64((j.n + j.chunk - 1) / j.chunk); ne < charged {
			charged = ne
		}
	}
	r.lane(-1).chunks.Add(uint64(charged))
	j.body, j.rangeBody = nil, nil
	r.jobPool.Put(j)
}

// runClaims executes blocks off j's cursor until none remain. The
// participant must already be counted in j.active; it uncounts itself
// on the way out (its last touch of j). Deliberately uninstrumented:
// any counter kept live across the body call would be spilled and
// reloaded around every iteration (Go's ABI has no callee-saved
// registers); runJob charges the region's whole block count instead.
func (j *job) runClaims() {
	n, chunk := j.n, j.chunk
	for {
		b := j.next.Add(1) - 1
		if b >= j.blocks {
			break
		}
		lo := int(b) * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if j.rangeBody != nil {
			if hi > lo {
				j.rangeBody(int(b), lo, hi)
			}
		} else {
			body := j.body
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
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

// claimableLocked reports whether a worker may join j (r.mu held).
func (j *job) claimableLocked() bool {
	return j.next.Load() < j.blocks && j.active.Load() < j.limit
}

// ---------------------------------------------------------------------
// Gang scheduling (p2p sweeps)
// ---------------------------------------------------------------------

// gang is one admitted Gang call: pieces bodies that are guaranteed
// to all be running concurrently (they may spin-wait on each other).
// Allocated per call (a gang is per solve sweep, not per row).
type gang struct {
	body      func(piece int)
	remaining atomic.Int64

	// Completion parking for the caller, as in job.
	mu   sync.Mutex
	cond *sync.Cond
}

func (g *gang) pieceDone() {
	if g.remaining.Add(-1) == 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

type gangPiece struct {
	g     *gang
	piece int
}

// gangQueue is a FIFO of assigned gang pieces.
type gangQueue struct {
	items []gangPiece
	head  int
}

func (q *gangQueue) push(p gangPiece) { q.items = append(q.items, p) }

func (q *gangQueue) pop() (gangPiece, bool) {
	if q.head >= len(q.items) {
		return gangPiece{}, false
	}
	p := q.items[q.head]
	q.items[q.head] = gangPiece{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return p, true
}

func (q *gangQueue) empty() bool { return q.head >= len(q.items) }

// Gang runs body(0) .. body(pieces-1) with all pieces guaranteed to
// execute concurrently — the contract the point-to-point synchronized
// sweeps need, since a piece spin-waits on other pieces' progress
// counters. The caller runs piece 0; pieces-1 workers are reserved
// through admission control, so concurrent gangs on a shared runtime
// queue up instead of deadlocking. If the runtime is too narrow
// (pieces-1 > workers) or closed, Gang falls back to spawning
// goroutines — correct, but the per-call-spawn path the runtime
// exists to avoid, so size runtimes to at least the widest gang.
func (r *Runtime) Gang(pieces int, body func(piece int)) {
	if pieces <= 0 {
		return
	}
	if pieces == 1 {
		body(0)
		return
	}
	need := pieces - 1
	if need > r.workers {
		r.spawnGang(pieces, body)
		return
	}
	g := &gang{body: body}
	g.cond = sync.NewCond(&g.mu)
	g.remaining.Store(int64(pieces))

	r.mu.Lock()
	if r.workers-r.committed < need && !r.closed {
		// Admission must wait for capacity; meter the queue time (the
		// clock is only read on this contended path, never when the
		// gang is admitted immediately).
		t0 := time.Now()
		for r.workers-r.committed < need && !r.closed {
			r.gangCond.Wait()
		}
		r.lane(-1).gangWaitNs.Add(uint64(time.Since(t0)))
	}
	if r.closed {
		r.mu.Unlock()
		r.spawnGang(pieces, body)
		return
	}
	r.committed += need
	r.lane(-1).gangs.Add(1)
	for p := 1; p < pieces; p++ {
		r.gangQ.push(gangPiece{g: g, piece: p})
	}
	if r.sleeping > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()

	body(0)
	g.pieceDone()
	for spins := 0; g.remaining.Load() > 0; spins++ {
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		g.mu.Lock()
		for g.remaining.Load() > 0 {
			g.cond.Wait()
		}
		g.mu.Unlock()
		break
	}
}

// spawnGang is the goroutine-per-piece fallback for gangs wider than
// the runtime (or after Close).
func (r *Runtime) spawnGang(pieces int, body func(piece int)) {
	r.lane(-1).gangs.Add(1)
	var wg sync.WaitGroup
	wg.Add(pieces - 1)
	for p := 1; p < pieces; p++ {
		go func(p int) {
			defer wg.Done()
			body(p)
		}(p)
	}
	body(0)
	wg.Wait()
}

// ---------------------------------------------------------------------
// Work-stealing batches (the former taskpool)
// ---------------------------------------------------------------------

// task is one queued batch unit.
type task struct {
	fn func()
	b  *Batch
}

// Batch is a work-stealing task group over a Runtime: Submit queues
// tasks onto per-worker deques (owners pop LIFO, thieves steal FIFO),
// Wait blocks until the group drains, with the waiter helping run
// tasks. Tasks may Submit further tasks to the same Batch. A Batch is
// safe for concurrent Submit; distinct Batches share the same deques
// and drain cooperatively. Reusable across Submit/Wait waves.
type Batch struct {
	r       *Runtime
	pending atomic.Int64

	// Completion parking for Wait, as in job.
	mu   sync.Mutex
	cond *sync.Cond
}

// NewBatch opens a task group on the runtime.
func (r *Runtime) NewBatch() *Batch {
	b := &Batch{r: r}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// taskDone retires one task; the task that empties the batch wakes a
// parked waiter.
func (b *Batch) taskDone() {
	if b.pending.Add(-1) == 0 {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Submit queues one task.
func (b *Batch) Submit(fn func()) {
	b.pending.Add(1)
	r := b.r
	q := int(r.nextQ.Add(1)) % len(r.deques)
	if q < 0 {
		q = -q
	}
	r.deques[q].push(task{fn: fn, b: b})
	r.mu.Lock()
	if r.sleeping > 0 {
		r.cond.Signal()
	}
	r.mu.Unlock()
}

// Wait blocks until every task submitted to this batch (including
// recursively submitted ones) has completed. The caller helps run
// tasks — possibly tasks of other batches sharing the runtime — while
// waiting. Do not call Wait from inside a task.
func (b *Batch) Wait() {
	r := b.r
	ls := r.lane(-1)
	// Failed steal scans are batched in a local and flushed at the
	// exit points, as in workerLoop: an atomic RMW per spin iteration
	// on the shared external shard would ping-pong its cache line
	// between concurrent waiters.
	failed := uint64(0)
	for spins := 0; b.pending.Load() > 0; spins++ {
		if t, ok := r.stealTask(-1); ok {
			// Success-path counting is amortized by the task body.
			ls.stealAttempts.Add(1)
			ls.stealSuccesses.Add(1)
			t.fn()
			t.b.taskDone()
			ls.tasks.Add(1)
			spins = 0
			continue
		}
		failed++
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		// Nothing left to help with: the remaining tasks are in flight
		// on workers. Park rather than burn a lane spinning.
		ls.stealAttempts.Add(failed)
		b.mu.Lock()
		for b.pending.Load() > 0 {
			b.cond.Wait()
		}
		b.mu.Unlock()
		return
	}
	if failed > 0 {
		ls.stealAttempts.Add(failed)
	}
}

// stealTask scans the deques (steal side) for any runnable task; self
// is the scanning worker's own deque index, or -1 for external
// callers.
func (r *Runtime) stealTask(self int) (task, bool) {
	nd := len(r.deques)
	for i := 0; i < nd; i++ {
		q := i
		if self >= 0 {
			q = (self + i) % nd
		}
		if t, ok := r.deques[q].steal(); ok {
			return t, true
		}
	}
	return task{}, false
}

// ---------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------

// step finds and executes one unit of work; false when none exists.
// Priority: gang pieces (they gate whole sweeps and hold reserved
// capacity), then open loop regions, then batch tasks.
func (r *Runtime) step(w int) bool {
	ls := r.lane(w)
	r.mu.Lock()
	if gp, ok := r.gangQ.pop(); ok {
		r.mu.Unlock()
		gp.g.body(gp.piece)
		r.mu.Lock()
		r.committed--
		r.mu.Unlock()
		r.gangCond.Signal()
		gp.g.pieceDone()
		return true
	}
	for _, j := range r.jobs {
		if j.claimableLocked() {
			j.active.Add(1) // join under r.mu (see runJob)
			r.mu.Unlock()
			j.runClaims()
			return true
		}
	}
	r.mu.Unlock()
	if t, ok := r.deques[w].pop(); ok {
		t.fn()
		t.b.taskDone()
		ls.tasks.Add(1)
		return true
	}
	if t, ok := r.stealTask(w); ok {
		// Successful steals are rare enough to count inline; failed
		// attempts happen on every idle spin, so workerLoop batches
		// them (a failed step implies exactly one failed steal scan).
		ls.stealAttempts.Add(1)
		ls.stealSuccesses.Add(1)
		t.fn()
		t.b.taskDone()
		ls.tasks.Add(1)
		return true
	}
	return false
}

// hasWorkLocked reports whether any work is visible (r.mu held).
func (r *Runtime) hasWorkLocked() bool {
	if !r.gangQ.empty() {
		return true
	}
	for _, j := range r.jobs {
		if j.claimableLocked() {
			return true
		}
	}
	for i := range r.deques {
		if !r.deques[i].empty() {
			return true
		}
	}
	return false
}

func (r *Runtime) workerLoop(w int) {
	defer r.wg.Done()
	spins := 0
	// Failed steal scans are batched in a plain local and flushed on
	// spin-budget exhaustion: one atomic add per failed step would
	// make the idle spin loop measurably more expensive, which on a
	// saturated machine is CPU taken from lanes doing real work. The
	// shard therefore lags by at most the spin budget per worker.
	failedSteals := uint64(0)
	for {
		if r.step(w) {
			spins = 0
			continue
		}
		failedSteals++
		spins++
		if spins < 128 {
			runtime.Gosched()
			continue
		}
		// Spin budget exhausted: park until new work arrives (or exit
		// if the runtime closed and nothing is pending). The park-path
		// counters are plain fields bumped under the lock we already
		// hold (see their declaration for why not atomics).
		r.mu.Lock()
		r.pkSpinToParks++
		r.pkStealFails += failedSteals
		failedSteals = 0
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
		spins = 0
	}
}

// ---------------------------------------------------------------------
// Deque
// ---------------------------------------------------------------------

// deque is a mutex-protected double-ended queue of batch tasks.
// Owners pop from the back (LIFO, cache-friendly); thieves steal from
// the front (FIFO, oldest/largest work first). A mutex per deque is
// competitive with a Chase–Lev deque at the task granularities the SR
// stage uses (tiles of hundreds of nonzeros), and trivially correct.
type deque struct {
	mu    sync.Mutex
	tasks []task //javelin:plain-under-mu mu
	head  int    //javelin:plain-under-mu mu
}

func (d *deque) push(t task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return task{}, false
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks[len(d.tasks)-1] = task{}
	d.tasks = d.tasks[:len(d.tasks)-1]
	d.compactLocked()
	return t, true
}

func (d *deque) steal() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return task{}, false
	}
	t := d.tasks[d.head]
	d.tasks[d.head] = task{}
	d.head++
	d.compactLocked()
	return t, true
}

func (d *deque) empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head >= len(d.tasks)
}

func (d *deque) compactLocked() {
	if d.head >= len(d.tasks) {
		d.tasks = d.tasks[:0]
		d.head = 0
	} else if d.head > 64 && d.head > len(d.tasks)/2 {
		n := copy(d.tasks, d.tasks[d.head:])
		d.tasks = d.tasks[:n]
		d.head = 0
	}
}
