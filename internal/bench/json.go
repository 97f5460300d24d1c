package bench

import (
	"encoding/json"
	"fmt"

	"javelin/internal/core"
	"javelin/internal/exec"
	"javelin/internal/krylov"
	"javelin/internal/util"
)

// Record is one machine-readable measurement, the unit of the
// BENCH_*.json perf trajectory: the best-of-Repeats wall time of one
// operation on one matrix at one thread count.
type Record struct {
	Matrix  string `json:"matrix"`
	N       int    `json:"n"`
	Nnz     int    `json:"nnz"`
	Method  string `json:"method"` // resolved lower-stage method
	Op      string `json:"op"`     // "factorize" | "apply" | "solve"
	Threads int    `json:"threads"`
	NsPerOp int64  `json:"ns_per_op"`
	// Variant names the numeric kernel table the engine dispatched to
	// (e.g. "go-blocked"); omitted in files recorded before the kernel
	// dispatch layer existed.
	Variant string `json:"variant,omitempty"`
}

// RunJSON measures numeric refactorization and preconditioner
// application for every selected suite matrix across the thread
// sweep, and writes the records to cfg.Out as a JSON array (the
// format behind javelin-bench -json, and of the checked-in BENCH_*.json
// perf-trajectory files).
//
// With cfg.Stats and cfg.Runtime set, the output is instead an object
// {"records": [...], "runtime_stats": {...}} where runtime_stats is
// the shared runtime's counter delta over the measured run (the
// javelin-bench -json -stats format).
func RunJSON(cfg Config) error {
	cfg = cfg.WithDefaults()
	var before exec.Stats
	if cfg.Stats && cfg.Runtime != nil {
		before = cfg.Runtime.Stats()
	}
	recs, err := CollectRecords(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(cfg.Out)
	enc.SetIndent("", "  ")
	if cfg.Stats && cfg.Runtime != nil {
		return enc.Encode(struct {
			Records      []Record   `json:"records"`
			RuntimeStats exec.Stats `json:"runtime_stats"`
		}{recs, cfg.Runtime.Stats().Sub(before)})
	}
	return enc.Encode(recs)
}

// CollectRecords runs the measurements behind RunJSON and returns
// them unencoded.
func CollectRecords(cfg Config) ([]Record, error) {
	cfg = cfg.WithDefaults()
	var recs []Record
	for _, inst := range BuildSuite(cfg, "", true) {
		a := inst.A
		for _, threads := range cfg.Threads {
			e, err := core.Factorize(a, cfg.EngineOptions(threads, core.LowerAuto))
			if err != nil {
				return nil, fmt.Errorf("bench: %s @%dT: %w", inst.Spec.Name, threads, err)
			}
			base := Record{
				Matrix:  inst.Spec.Name,
				N:       a.N,
				Nnz:     a.Nnz(),
				Method:  e.Method().String(),
				Threads: threads,
				Variant: e.KernelVariant(),
			}
			fac := base
			fac.Op = "factorize"
			fac.NsPerOp = TimeBest(cfg.Repeats, func() {
				if err := e.Refactorize(a); err != nil {
					panic(err)
				}
			}).Nanoseconds()
			recs = append(recs, fac)

			r := make([]float64, a.N)
			z := make([]float64, a.N)
			rng := util.NewRNG(77)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			ctx := e.NewContext()
			ap := base
			ap.Op = "apply"
			ap.NsPerOp = TimeBest(cfg.Repeats, func() {
				ctx.Apply(r, z)
			}).Nanoseconds()
			recs = append(recs, ap)

			// End-to-end iterate-to-tolerance cost — the quantity the
			// public Solver sessions serve. Method mirrors MethodAuto:
			// CG on pattern-symmetric matrices, GMRES otherwise.
			sv := base
			sv.Op = "solve"
			ws := krylov.NewWorkspace()
			kopt := krylov.Options{Tol: 1e-6, Work: ws,
				Threads: threads, Runtime: e.Runtime()}
			x := make([]float64, a.N)
			solveOnce := func() error {
				for i := range x {
					x[i] = 0
				}
				if a.PatternSymmetric() {
					_, err := krylov.CG(a, ctx, r, x, kopt)
					return err
				}
				_, err := krylov.GMRES(a, ctx, r, x, kopt)
				return err
			}
			if err := solveOnce(); err != nil { // warm the workspace
				e.Close()
				return nil, fmt.Errorf("bench: solve %s @%dT: %w", inst.Spec.Name, threads, err)
			}
			sv.NsPerOp = TimeBest(cfg.Repeats, func() {
				if err := solveOnce(); err != nil {
					panic(err)
				}
			}).Nanoseconds()
			recs = append(recs, sv)
			e.Close()
		}
	}
	return recs, nil
}
