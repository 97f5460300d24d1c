// Package javelin is a scalable shared-memory framework for sparse
// incomplete LU factorization, reproducing Booth & Bolet, "Javelin: A
// Scalable Implementation for Sparse Incomplete LU Factorization"
// (IPPS/IPDPS 2019).
//
// Javelin factorizes A ≈ L·U on a predetermined sparsity pattern
// (ILU(k), ILU(τ), ILU(k,τ), optionally modified/MILU) using an
// up-looking row algorithm scheduled in two stages:
//
//   - an upper stage of level-scheduled rows, factored level by level
//     with a barrier after each level, and
//   - a lower stage for the trailing small/dense levels, factored by
//     either the Segmented-Rows (SR) or Even-Rows (ER) method. Both
//     eliminate each lower row against the finished upper stage in
//     one pass, one row per piece, and then run the same corner
//     factorization. They differ only in how a lower row sums its
//     MILU compensation: SR per upper level (the paper's segments),
//     ER in one run. Without MILU their factors are equal.
//
// This SR never splits a row across threads, unlike the paper's
// segmented-scan SR, which cuts a lower row's eliminations by upper
// level so that threads can share one long row. Lower rows are
// independent once the upper stage is final, and one up-looking pass
// per row divides each pivot entry just before using it, which is why
// DIVIDE and UPDATE are one pass here; eliminating a row once per
// upper level would only reload its suffix every time.
//
// The upper stage departs from the paper here. The paper synchronizes
// it with point-to-point spin waits (Park et al., ISC 2014): each
// thread owns fixed rows and waits on the progress counters of the
// threads that own its rows' dependencies. That only terminates if
// every thread is running, and a Go program sharing its processors
// cannot promise that. With 16 solving goroutines beside a
// Refactorize on 2 Ps, one descheduled lane stalled the others for
// tens of seconds, and 20 runs of the live-refactorize hammer test
// (TestSolverLiveRefactorizeHammer) at GOMAXPROCS=2 on a 2-vCPU host
// did not finish in 120 s. Javelin instead cuts each level into
// blocks of rows that any lane may claim once the level before has
// finished (Anderson & Saad's level scheduling, 1989), all levels in
// one runtime region, so a lane that never starts holds no rows and
// the caller can finish every level alone; the same 20 runs take
// 0.1–0.5 s. On that host the 2-thread
// upper stage costs about the same on the benchmark's PDE and circuit
// matrices (best of 30 per round, 8 rounds: 2.07–2.55 ms with p2p
// against 2.05–2.76 ms in blocks on parabolic_fem, 0.67–0.92 against
// 0.62–0.72 ms on trans4) and about 13% more in the median on
// TSOPF_RS_b300_c2 (2.66–3.18 against 3.15–3.92 ms), whose 133 levels
// of a median 5 rows each pay a barrier.
//
// Every stage eliminates a row with the standard position-map row
// kernel (Saad, "Iterative Methods for Sparse Linear Systems",
// §10.3): the row is loaded into a buffer, a column map sends each
// update straight to its slot, and updates to columns outside the
// pattern land in one accumulator slot (the MILU compensation), so
// the update loop has no branch. Each factorization allocates one
// map and buffer (a lane) per thread and drops them when it returns;
// a row runs on the lane of the worker that owns it, with no
// synchronization per row. For a given lower-stage method the factor
// values do not depend on the thread count.
//
// The same permutation drives the sparse triangular solves, and one
// level scheduler runs both: the upper levels are the phases of the
// factorization pass's one region (a gate per level, then the lower
// rows, then the corner groups) and of the solves' phased sweeps (one
// region per sweep, taken while the solves' own forward sweeps measure
// that route faster than a plain sweep), so the preconditioner applies
// without reformatting — the paper's co-design thesis.
//
// # Quick start
//
//	m := javelin.GridLaplacian(100, 100, 1, javelin.Star5, 0.1)
//	p, err := javelin.Factorize(m, javelin.DefaultOptions())
//	if err != nil { ... }
//	defer p.Close()
//	s, err := javelin.NewSolver(m, p, javelin.WithTol(1e-6))
//	if err != nil { ... }
//	x := make([]float64, m.N())
//	stats, err := s.Solve(ctx, b, x)
//
// # Solver sessions
//
// A Solver is the single entry point for iterative solves: built once
// from a Matrix and an optional Preconditioner, it is safe for any
// number of concurrent Solve calls. Each call draws its
// preconditioner-application context and Krylov workspace from
// internal pools (allocation-free once warm), honors its
// context.Context within one iteration of cancellation, and fails
// with typed errors — ErrNotConverged, ErrBreakdown, ErrDimension,
// ErrNonFinite, ErrStopped — every one a *SolveError carrying the
// SolverStats at the stopping point:
//
//	s, err := javelin.NewSolver(m, p,
//		javelin.WithMethod(javelin.MethodAuto), // CG if symmetric (pattern AND values), else GMRES
//		javelin.WithTol(1e-8),
//		javelin.WithMonitor(func(it javelin.IterInfo) bool {
//			return it.Residual < 1e6 // give up on blow-up
//		}))
//	for w := 0; w < workers; w++ {
//		go func() {
//			for job := range jobs {
//				st, err := s.Solve(job.ctx, job.b, job.x)
//				if errors.Is(err, javelin.ErrNotConverged) { ... }
//			}
//		}()
//	}
//
// One Solver binds one (matrix, preconditioner) pair; build another
// for another system. The Preconditioner must outlive the Solver;
// Refactorize may run at any time, concurrently with in-flight Solve
// calls (see the concurrency model below).
//
// # Concurrency model
//
// The symbolic state of a factorized Preconditioner — permutation,
// level schedules, piece plans, sparsity pattern — is immutable
// and only read by solves. The numeric factor values are
// epoch-versioned: Refactorize scatters and factors the new matrix
// into an inactive value buffer (reusing all symbolic structure) and
// publishes it with one atomic swap, so refreshing the factor never
// mutates values a solve is reading and never waits for solve traffic
// to drain.
//
//   - A Solver.Solve call pins the epoch current when it starts and
//     uses that one consistent snapshot for every preconditioner
//     application of the solve — the Krylov iteration sees a fixed
//     preconditioner even if Refactorize publishes mid-solve, and a
//     solve that runs entirely within one epoch is bit-deterministic.
//   - An Applier pins per application: each Apply/ApplyBatch call
//     runs on the epoch current at its entry, and the next call picks
//     up newly published values.
//   - Old epochs retire once their last in-flight reader finishes;
//     their buffers and epoch headers are recycled by a later
//     Refactorize, so a refactorize-heavy steady state ping-pongs
//     between two value buffers and allocates nothing for them.
//   - A failed Refactorize (zero pivot, ErrPatternMismatch,
//     ErrNonFinite) leaves the previously published values current,
//     so solve traffic continues on the last good factor.
//
// All mutable solve state lives in per-caller contexts. The Solver
// and Preconditioner.Apply draw those contexts from a pool per call,
// so both are safe for concurrent use; code that applies the
// preconditioner in a loop can hold its own Applier per goroutine
// instead (cheap: one length-N scratch vector plus schedule progress
// counters), and ApplyBatch lives on Applier, which keeps its packed
// batch block across calls.
//
// One primitive implements all of this, for the factor values here
// and the matrix values below: internal/epoch's Cell, which holds the
// only increment-then-validate pin loop and the only
// grab/publish/recycle path in the tree.
//
// Refactorize rejects matrices whose sparsity leaves the factorized
// pattern with ErrPatternMismatch instead of silently computing the
// factor of a different matrix; τ-dropped refactorization workflows
// set Options.AllowPatternMismatch to opt back into dropping.
// Factorize, Refactorize, NewVersionedMatrix and UpdateValues reject
// a NaN or ±Inf value with ErrNonFinite, naming the entry, and
// publish nothing. Factorize and Refactorize also fail with
// ErrNonFinite, naming the factor row, when finite input overflows to
// a non-finite factor entry, so only finite factors are published.
//
// # Live updates & drift policy
//
// The matrix side of a solve runs on the same internal/epoch Cell as
// the factor side. A VersionedMatrix wraps a fixed sparsity pattern
// with epoch-versioned values: UpdateValues (or UpdateMatrix)
// publishes a complete new value generation with one atomic swap —
// publishers never block and never wait for readers — and a retired
// generation's buffer and header are recycled for a later update once
// its last pinned reader finishes, so a steady stream of updates
// ping-pongs between two buffers and allocates nothing.
//
// A Solver built with NewVersionedSolver pins one consistent
// (A-epoch, factor-epoch) pair for the whole solve. The invariant,
// precisely: every matvec and every preconditioner application of one
// Solve call reads the matrix values of exactly one published matrix
// epoch and the factor values of exactly one published factor epoch —
// the pair current when the solve began — no matter how many
// UpdateValues or Refactorize publications land mid-solve. SolverStats
// reports the pair (MatrixEpoch, FactorEpoch), and two solves of the
// same right-hand side reporting the same pair compute
// bitwise-identical trajectories.
//
// WithAutoRefactorize closes the loop: a DriftPolicy watches each
// solve through the Monitor hook (mid-solve residual growth) and its
// final stats (iteration count versus the fresh-pair baseline,
// non-convergence), and when a solve on a stale pair — matrix epoch
// newer than the generation the factor was built from — shows drift,
// one background goroutine refactorizes from the newest published
// generation (single-flight: concurrent detections coalesce into the
// attempt already running). A failed attempt leaves the previous pair
// serving and only moves the DriftStats failure counter; Solver.Close
// stops the policy and waits out any in-flight attempt.
//
//	vm, _ := javelin.NewVersionedMatrix(m)
//	s, _ := javelin.NewVersionedSolver(vm, p,
//		javelin.WithAutoRefactorize(javelin.DriftPolicy{IterGrowth: 1.5}))
//	defer s.Close()
//	...
//	vm.UpdateValues(vals)       // timestep: publish new values, pattern fixed
//	st, _ := s.Solve(ctx, b, x) // pins one (A, factor) pair throughout
//
// Prefer this loop over calling Refactorize by hand after every
// update: the policy spends the refactorization only when the stale
// factor measurably hurts the iteration, so mild drift costs nothing
// (see examples/timestepping).
//
// # Batched right-hand sides
//
// When several right-hand sides are available at once, ApplyBatch
// applies the preconditioner to all of them in one sweep: each factor
// row is traversed once and its update applied to every vector in the
// batch, so the level-schedule synchronization cost is amortized k
// ways (the spmv-like blocking the co-design enables):
//
//	ap := p.NewApplier()
//	R := [][]float64{r0, r1, r2, r3}  // k right-hand sides
//	Z := [][]float64{z0, z1, z2, z3}
//	ap.ApplyBatch(R, Z)               // ≈ k× cheaper than k Apply calls
//
// # Execution runtime & threading contract
//
// Every parallel region in Javelin — factorization stages, phased
// triangular sweeps, SpMV, solver matvecs and reductions — schedules
// onto a persistent
// Runtime: a fixed pool of worker goroutines, so hot paths never
// create goroutines per call. A worker with nothing to claim keeps
// polling for up to exec.IdleSpin (500 µs of wall-clock time) after its
// last claim or wake, yielding its P between polls, and only then
// parks; a runtime idle for longer holds no P. The budget is there
// because on a 2-vCPU host a parked worker took about 105 µs (median)
// to start a piece once woken, longer than most regions of a solve it
// would be woken for (a matvec, a reduction, a phased sweep), while the
// gaps between those regions are shorter than the budget, so a solve's
// workers stay running from its first region to its last.
// Every region is one construct: a set of pieces claimed in index
// order, each run with the lane number of the participant running it
// (the caller is lane 0, each worker that joins takes the next
// number), with an optional count gate. For runs ungated pieces: the
// scatter's and every matvec's row ranges, a reduction's runs of
// blocks. Phases runs gated ones: the factor region's pieces and the
// phased sweeps' per-level row ranges. The factor stages index their
// per-lane scratch by that lane number, in the scatter's For region
// and the factor's Phases region alike, so no two pieces running at
// once share scratch.
//
// Ownership rules:
//
//   - Options.Runtime nil (the default): Factorize creates a private
//     runtime sized to Options.Threads; the Preconditioner owns it
//     and Close releases it. Close is idempotent and safe to call
//     concurrently.
//   - Options.Runtime set: the engine schedules onto the caller's
//     runtime and never closes it. Any number of Preconditioners and
//     concurrent Appliers may share one Runtime; whoever called
//     NewRuntime closes it after all of them are done.
//   - DefaultRuntime() is the lazily created process-wide pool
//     (GOMAXPROCS lanes). Free functions with a plain threads
//     argument run there. It is never closed.
//
// Threads semantics: Options.Threads is the maximum parallelism of
// each region, defaulting to GOMAXPROCS (or the shared runtime's
// parallelism). A runtime provides Threads-way parallelism with
// Threads-1 workers because the goroutine opening a region always
// helps execute it. When Options.Runtime is set, Threads is clamped
// to the runtime's parallelism, the most lanes that can run a region
// at once. No region body waits on another: every region can be
// finished by the goroutine that opened it, so concurrent
// factorizations and solves over a shared runtime, or a runtime whose
// workers are all busy, only slow a region down and never stall it.
//
// Closing a Preconditioner (or a shared Runtime) while solves are in
// flight is a programming error; solves issued after Close still
// complete, degraded to caller-driven execution.
//
// # Numeric kernels & dispatch
//
// Every numeric inner loop — dot products and norms, axpy/scale
// vector updates, CSR row-range SpMV (every Krylov matvec, at every
// thread count), the row-range forward and backward substitutions
// (whole sweeps, or single rows for the CSR-LS baseline), and the
// dense-panel update behind ApplyBatch — lives in one internal kernel
// table, selected once at process init and captured per engine at
// factorization, so a binary reports exactly which variant produced
// its numbers: javelin-info prints it (with the detected CPU features
// and the asm-backed slots), and so does the repository benchmark's
// host stamp. Matrix.MatVec keeps a plain Go loop outside the table,
// as the independent reference the kernels are checked against.
//
// Selection order: -tags purego always forces "go-reference" (the
// textbook loops, zero assembly linked); otherwise on amd64 runtime
// CPU detection (internal/cpuid: CPUID + XGETBV, so the OS must save
// YMM state too) selects "avx2" — AVX2 assembly for the elementwise
// kernels and the independent multiplies of the reductions — and
// every other case gets "go-blocked", the 4-way unrolled
// bounds-check-eliminated pure Go. A table whose instructions the
// machine cannot execute is never registered at all. To A/B variants
// on equal terms, javelin-bench -variant forces a table before any
// engine exists.
//
// All variants are bitwise-identical by contract — every variant
// keeps one chained accumulator in the reference summation order, and
// the assembly kernels use separate multiply and add/subtract
// instructions, never FMA contraction: an FMA rounds once where
// mul-then-add rounds twice, so a fused kernel would change solver
// trajectories in the low bits. Switching variants therefore never
// changes a trajectory. Every parallel region also has an inline
// route, the same traversal run on the calling goroutine and
// bit-identical to the dispatched one, so the choice between them is
// invisible except in time:
//
//   - Flat regions (SpMV, the factor scatter, and the deterministic
//     reductions of vectors of at least four 4096-entry blocks) and
//     the factor stages open whenever Threads > 1, on up to Threads
//     lanes: a factorization pass is the scatter's region plus one
//     Phases region for all its numeric stages. At Threads = 1 every
//     region runs inline on the caller; a caller whose system is too
//     small to repay a region sets Threads = 1.
//   - Only the triangular sweeps of a solve choose their route by
//     measurement, and they measure as they run. At Threads > 1, where
//     two lanes could run at once at Factorize, every forward sweep
//     times its upper stage, inline or as one phased region (each
//     level's rows cut into one range per lane, a barrier between
//     levels, Anderson & Saad's level scheduling). Each route's
//     estimate is the least of its last eight times; a phased sweep
//     that no second lane joined is not counted, nor an inline one
//     begun while the runtime's worker may still poll after a phased
//     sweep (exec.IdleSpin), whose polling slows the caller on a host
//     with few CPUs. The sweeps start inline and take the route in
//     use; at most once per 64 forward sweeps and 10 ms they explore
//     the other route until two of its sweeps could be counted, and
//     the route changes when the other estimate is lower by more than
//     a tenth: run-time selection as OSKI does it. Engine.SolveRoute
//     reports the route, both estimates and the switches, and
//     Engine.RouteSettled whether the first exploration has closed.
//     The backward sweep takes the forward sweeps' route; the lower
//     rows always run inline. Both sweeps are plain substitution on
//     every route, so every thread count and every switch gives the
//     1-thread bits. This departs from the paper, whose lower rows'
//     solve is an spmv-like pass over their upper-stage entries before
//     the corner. Run
//     inline, that staged pass made the 2-thread apply on
//     TSOPF_RS_b300_c2 (699 lower rows, a 2-vCPU host) 1.33–1.37× the
//     1-thread one in 4 of 4 traced benchmark runs; plain substitution
//     read 0.99–1.04× in 3 of 4, and 1.39× in the fourth, a spread two
//     timings of one unchanged 1-thread apply in one run also show
//     (126 and 181 µs). The paper's p2p sweep, which waited on other
//     lanes row by row, is not used: on the 2-vCPU hosts it was timed
//     on, an apply through it took 2–13× as long as the 1-thread sweep
//     on every matrix tried.
//
// # Runtime metrics
//
// Every Runtime meters its own activity through always-on counters:
// parallel regions executed, chunks claimed off region cursors, and
// worker park/wake and spin-to-park transitions. Each counted event is
// per region, never per loop iteration, so the counters stay off the
// hot loops; Runtime.Stats() returns them as a RuntimeStats snapshot:
//
//	rt := javelin.NewRuntime(8)
//	defer rt.Close()
//	before := rt.Stats()
//	...factorize and solve with Options.Runtime = rt...
//	delta := rt.Stats().Sub(before)   // activity of just this phase
//	fmt.Println(delta)                // one "name value" line per counter
//
// Preconditioner.RuntimeStats() reads the same counters through the
// engine (covering its private runtime, or the shared one when
// Options.Runtime was set). The snapshot answers capacity-planning
// questions for shared pools: Chunks/Regions is the fan-out regions
// actually realize, and high SpinToParks with few Parks means the
// pool sits at its churn point. StealAttempts/StealSuccesses are
// always 0, since the runtime has no work-stealing scheduler, and so
// are Gangs/GangWaitNs, since it has no gang construct. The
// javelin-info and javelin-bench tools print the same counters under
// a -stats flag.
//
// # Static analysis & enforced invariants
//
// The contracts the library rests on are machine-checked by
// javelin-vet (cmd/javelin-vet, analyzers in internal/analyzers), a
// dependency-free driver over stdlib go/ast + go/types that runs as a
// blocking CI job. Each analyzer guards one contract:
//
//   - pinpair — epoch pinning (the live-refactorization contract):
//     every AcquireContext/ReleaseContext and VersionedMatrix/epoch.Cell
//     Pin/Unpin must be paired on every return path, including error
//     paths, by defer or explicit call. A leaked pin strands a retired
//     generation's buffer forever.
//   - kernelpurity — the bitwise-identity contract, Go side: kernel
//     bodies in internal/kernels must not use math.FMA, iterate maps,
//     launch goroutines, or import time/math/rand.
//   - asmvet — the bitwise-identity contract, assembly side: hand-
//     written *_GOARCH.s files are checked against arch-keyed opcode
//     tables (amd64 and arm64 today; unknown architectures are
//     skipped). No fused-multiply-add opcode may appear anywhere, and
//     on amd64 every RET of an AVX-bodied TEXT block must be
//     immediately preceded by VZEROUPPER (the AVX→SSE transition
//     hazard is amd64-specific).
//   - atomicvet — one synchronization discipline per field: a field
//     accessed through the sync/atomic API anywhere must never be
//     read or written plainly elsewhere; a field of an atomic.* type
//     must only be used through its methods or by address; and a
//     field annotated //javelin:plain-under-mu <mu> is verified
//     flow-sensitively to be touched only with the named mutex held
//     on every path — how the runtime's park-path counters stay plain
//     (bumped under the lock the park path already holds) without
//     giving up machine checking.
//   - lockvet — mutex discipline in the execution runtime and
//     everywhere else: every Lock/RLock reaches its Unlock/RUnlock on
//     every return path (defer-aware; the *Locked naming convention
//     pre-holds the receiver's mutexes), re-locking a held mutex and
//     unlocking an unheld one are reported, and the static
//     lock-acquisition-order graph over mutex classes (Runtime.mu,
//     job.mu, ...) must stay acyclic — a cycle is a deadlock some
//     concurrent schedule can reach.
//   - ctxloop — the cancellation-latency promise ("within one
//     iteration of cancel"): every for loop in the krylov solvers
//     must reach a Ctx check (Options.step, Options.ctxErr, or
//     Ctx.Err directly) before its first kernel-scale call
//     (Options.matVec, a Preconditioner Apply, anything in spmv) on
//     every path through an iteration. Vector primitives are exempt —
//     their cost is a vector, not a matrix.
//   - noallocgraph — the allocation-free warm path: a function
//     annotated //javelin:noalloc (Solver.Solve, Applier.Apply, the
//     context Apply/ApplyBatch/solve paths, kernel bodies, krylov
//     reductions) must contain no direct heap-allocation site, and
//     each same-module callee it statically reaches, in any package
//     (a call a go statement spawns excepted), must itself be
//     //javelin:noalloc, carry an //javelin:alloc-ok waiver (on the
//     callee's doc or at the call site), or be proven allocation-free
//     by the same evidence — recursively, so an innocent-looking
//     helper that allocates cannot hide two calls down from a noalloc
//     entry point. The evidence is the compiler's own escape analysis:
//     one go build -gcflags=-m per package. Deliberate allocations on
//     cold branches (e.g. the closure handed to the parallel
//     dispatcher) carry a //javelin:alloc-ok waiver with a reason.
//
// Three //javelin:* directives carry the machine-checked contracts:
//
//	//javelin:noalloc             on a function's doc comment: the body
//	                              is allocation-free on the warm path.
//	                              noallocgraph checks the body and the
//	                              static call graph beneath it.
//	//javelin:alloc-ok <reason>   waives one deliberate allocation, with
//	                              a reason. On the line of (or above) an
//	                              allocation or call site it accepts
//	                              that site; on a function's doc comment
//	                              it accepts the whole function as a
//	                              deliberate cold path.
//	//javelin:plain-under-mu <mu> on a struct field: the field is
//	                              deliberately plain because the named
//	                              sibling mutex field guards every
//	                              access. atomicvet proves the claim
//	                              flow-sensitively and rejects mixed
//	                              atomic/plain use.
//
// `go run ./cmd/javelin-vet ./...` exits nonzero on any finding
// (-json for machine-readable output, per-analyzer flags to narrow);
// findings are sorted by file, line, and analyzer, so reruns are
// byte-identical. New code — in particular new kernel variants and
// new locking — must pass the suite.
//
// The internal packages hold the substrates (sparse structures, level
// scheduling, the execution runtime, orderings, Krylov solvers,
// baselines); this package is the supported surface.
package javelin
