package bench

import (
	"fmt"
	"time"

	"javelin/internal/baseline"
	"javelin/internal/core"
	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/krylov"
	"javelin/internal/levelset"
	"javelin/internal/order"
	"javelin/internal/sparse"
	"javelin/internal/trisolve"
	"javelin/internal/util"
)

// ---------------------------------------------------------------------------
// Table I — test-suite statistics
// ---------------------------------------------------------------------------

// RunTable1 prints the suite statistics next to the paper's values.
func RunTable1(cfg Config) {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title: "Table I — test suite (built analogues vs paper)",
		Headers: []string{"Matrix", "N", "Nnz", "RD", "SP", "Lvl",
			"paperN", "paperRD", "paperSP", "paperLvl"},
	}
	// Lvl is computed after the standard DM+ND preordering — Table I
	// and Table III agree on Lvl per matrix in the paper, so the level
	// scheduling there runs on the preordered matrix.
	for _, inst := range BuildSuite(cfg, "", true) {
		a := inst.Raw
		lv := levelset.Compute(inst.A, levelset.LowerAAT)
		sym := "no"
		if a.PatternSymmetric() {
			sym = "yes"
		}
		psym := "no"
		if inst.Spec.PaperSym {
			psym = "yes"
		}
		t.AddRow(inst.Spec.Name, D(a.N), D(a.Nnz()), F(a.RowDensity()), sym,
			D(lv.Count), D(inst.Spec.PaperN), F(inst.Spec.PaperRD), psym,
			D(inst.Spec.PaperLvl))
	}
	t.Render(cfg.Out)
}

// ---------------------------------------------------------------------------
// Tables III & IV — level statistics and the stage-split parameter A
// ---------------------------------------------------------------------------

// RunTable3 prints level-set statistics of lower(A+Aᵀ) with the rows
// moved to the lower stage for A ∈ {16, 24, 32}.
func RunTable3(cfg Config) {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title: "Table III — level sets of lower(A+A^T) after DM+ND preordering",
		Headers: []string{"Matrix", "Lvl", "M", "Max", "Med",
			"R-16", "R-24", "R-32"},
	}
	for _, inst := range BuildSuite(cfg, "", true) {
		lv := levelset.Compute(inst.A, levelset.LowerAAT)
		st := lv.ComputeStats()
		var r [3]int
		for i, minRows := range []int{16, 24, 32} {
			opt := levelset.DefaultSplitOptions()
			opt.MinRowsPerLevel = minRows
			sp := levelset.ComputeSplit(inst.A, levelset.LowerAAT, opt)
			r[i] = sp.NLower()
		}
		t.AddRow(inst.Spec.Name, D(st.Levels), D(st.Min), D(st.Max),
			F(st.Median), D(r[0]), D(r[1]), D(r[2]))
	}
	t.Render(cfg.Out)
}

// RunTable4 prints lower(A) level statistics for the paper's four
// unsymmetric matrices.
func RunTable4(cfg Config) {
	cfg = cfg.WithDefaults()
	names := []string{"TSOPF_RS_b300_c2", "3D_28984_Tetra", "ibm_matrix_2", "trans4"}
	t := &Table{
		Title:   "Table IV — level sets of lower(A) pattern",
		Headers: []string{"Matrix", "Lvl", "Min", "Max", "Median"},
	}
	for _, name := range names {
		if len(cfg.Matrices) > 0 && !contains(cfg.Matrices, name) {
			continue
		}
		spec, ok := gen.ByName(name)
		if !ok {
			continue
		}
		inst := BuildInstance(spec, cfg.Scale, true)
		lv := levelset.Compute(inst.A, levelset.LowerA)
		st := lv.ComputeStats()
		t.AddRow(name, D(st.Levels), D(st.Min), D(st.Max), F(st.Median))
	}
	t.Render(cfg.Out)
}

// ---------------------------------------------------------------------------
// Fig. 9 — slowdown of the supernodal (WSMP-analogue) baseline
// ---------------------------------------------------------------------------

// Fig9Row is one matrix's slowdown series.
type Fig9Row struct {
	Name     string
	Slowdown []float64 // per thread count; NaN where the baseline failed
	Failed   []bool
}

// RunFig9 measures slowdown(matrix, p) = time(baseline)/time(Javelin)
// for p in cfg.Threads (the paper sweeps 1–8).
func RunFig9(cfg Config) []Fig9Row {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title:   "Fig. 9 — slowdown of supernodal ILUT baseline vs Javelin ('x' = baseline failed)",
		Headers: append([]string{"Matrix"}, threadHeaders(cfg.Threads)...),
	}
	var rows []Fig9Row
	for _, inst := range BuildSuite(cfg, "", true) {
		row := Fig9Row{Name: inst.Spec.Name}
		cells := []string{inst.Spec.Name}
		for _, p := range cfg.Threads {
			jt := timeJavelinILU(cfg, inst.A, p, core.LowerNone)
			bopt := baseline.DefaultSupernodalOptions()
			bopt.Threads = p
			var bt time.Duration
			failed := false
			bt = TimeBest(cfg.Repeats, func() {
				if _, err := baseline.Supernodal(inst.A, bopt); err != nil {
					failed = true
				}
			})
			if failed {
				row.Slowdown = append(row.Slowdown, 0)
				row.Failed = append(row.Failed, true)
				cells = append(cells, "x")
			} else {
				s := float64(bt) / float64(jt)
				row.Slowdown = append(row.Slowdown, s)
				row.Failed = append(row.Failed, false)
				cells = append(cells, F(s))
			}
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	t.Render(cfg.Out)
	return rows
}

// timeJavelinILU times the numeric factorization (Refactorize), which
// is what the paper measures, excluding symbolic setup.
func timeJavelinILU(cfg Config, a *sparse.CSR, threads int, lower core.LowerMethod) time.Duration {
	e, err := core.Factorize(a, cfg.EngineOptions(threads, lower))
	if err != nil {
		return 0
	}
	defer e.Close()
	return TimeBest(cfg.Repeats, func() {
		if err := e.Refactorize(a); err != nil {
			panic(err)
		}
	})
}

// ---------------------------------------------------------------------------
// Figs. 10 & 11 — ILU strong-scaling speedup, LS vs LS+Lower
// ---------------------------------------------------------------------------

// SpeedupRow is one matrix's speedups at one thread count.
type SpeedupRow struct {
	Name    string
	LS      float64
	LSLower float64
	Method  string // lower method the engine picked
}

// RunScaling measures speedup(matrix, p) = time(1)/time(p) for the
// LS-only configuration and the LS+Lower configuration, at each
// thread count. It renders one table per thread count and returns the
// rows (outer index follows cfg.Threads). Figs. 10 and 11 are this
// experiment at the paper's {14, 28} and {68, 136} thread counts; on
// the host we sweep cfg.Threads.
func RunScaling(cfg Config, title string) [][]SpeedupRow {
	cfg = cfg.WithDefaults()
	out := make([][]SpeedupRow, len(cfg.Threads))
	suite := BuildSuite(cfg, "", true)
	type base struct{ t time.Duration }
	bases := make([]base, len(suite))
	for i, inst := range suite {
		bases[i] = base{timeJavelinILU(cfg, inst.A, 1, core.LowerNone)}
	}
	for pi, p := range cfg.Threads {
		t := &Table{
			Title:   fmt.Sprintf("%s — speedup at %d threads (serial LS base)", title, p),
			Headers: []string{"Matrix", "LS", "LS+Lower", "LowerMethod", "GeoMeanContrib"},
		}
		var speeds []float64
		for i, inst := range suite {
			ls := timeJavelinILU(cfg, inst.A, p, core.LowerNone)
			lsl, method := timeJavelinAuto(cfg, inst.A, p)
			r := SpeedupRow{
				Name:    inst.Spec.Name,
				LS:      ratio(bases[i].t, ls),
				LSLower: ratio(bases[i].t, lsl),
				Method:  method,
			}
			best := r.LS
			if r.LSLower > best {
				best = r.LSLower
			}
			speeds = append(speeds, best)
			out[pi] = append(out[pi], r)
			t.AddRow(r.Name, F(r.LS), F(r.LSLower), method, F(best))
		}
		t.AddRow("(geomean best)", "", "", "", F(util.GeoMean(speeds)))
		t.Render(cfg.Out)
	}
	return out
}

func timeJavelinAuto(cfg Config, a *sparse.CSR, threads int) (time.Duration, string) {
	e, err := core.Factorize(a, cfg.EngineOptions(threads, core.LowerAuto))
	if err != nil {
		return 0, "err"
	}
	defer e.Close()
	d := TimeBest(cfg.Repeats, func() {
		if err := e.Refactorize(a); err != nil {
			panic(err)
		}
	})
	return d, e.Method().String()
}

func ratio(base, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(base) / float64(t)
}

// ---------------------------------------------------------------------------
// Fig. 12 — triangular-solve max-speedup vs the CSR-LS baseline
// ---------------------------------------------------------------------------

// Fig12Row reports maxspeedup for the three stri methods.
type Fig12Row struct {
	Name               string
	CSRLS, LS, LSLower float64
}

// RunFig12 measures maxspeedup(m, mat, p) = time(CSR-LS, mat, 1) /
// min over i ≤ p of time(m, mat, i) for the barrier baseline, the
// level-scheduled engine, and the full two-stage engine. Timing
// covers a forward+backward sweep pair (one preconditioner apply).
// The engines' sweeps run their upper-stage rows on the route each
// engine's own forward sweeps measure faster on this host, inline or
// one phased region per sweep (see core.Engine.SolveRoute), so their
// columns show parallel speedup only where the phased route wins; at
// Threads 1 they measure the sweep order alone.
func RunFig12(cfg Config) []Fig12Row {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title:   "Fig. 12 — stri maxspeedup vs serial CSR-LS",
		Headers: []string{"Matrix", "CSR-LS", "LS", "LS+Lower"},
	}
	var rows []Fig12Row
	for _, inst := range BuildSuite(cfg, "", true) {
		a := inst.A
		n := a.N
		b := make([]float64, n)
		x := make([]float64, n)
		rng := util.NewRNG(1234)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		// Factor once with LS-only (its permuted factor feeds the
		// CSR-LS baseline so all methods solve the same system).
		eLS, err := core.Factorize(a, cfg.EngineOptions(util.MaxThreads(), core.LowerNone))
		if err != nil {
			continue
		}
		eFull, err := core.Factorize(a, cfg.EngineOptions(util.MaxThreads(), core.LowerAuto))
		if err != nil {
			eLS.Close()
			continue
		}

		serialBase := TimeBest(cfg.Repeats, func() {
			trisolve.SolveLowerSerial(eLS.Factor(), b, x)
			trisolve.SolveUpperSerial(eLS.Factor(), x, x)
		})

		bestCSRLS := serialBase
		bestLS := time.Duration(1<<63 - 1)
		bestFull := time.Duration(1<<63 - 1)
		for _, p := range cfg.Threads {
			sls := trisolve.NewCSRLS(eLS.Factor(), p)
			d := TimeBest(cfg.Repeats, func() {
				sls.SolveLower(b, x)
				sls.SolveUpper(x, x)
			})
			if d < bestCSRLS {
				bestCSRLS = d
			}
			// Engines are built per thread count: at Threads > 1
			// each one's sweeps choose their own route.
			dLS := timeEngineSolve(cfg, a, p, core.LowerNone, b)
			if dLS > 0 && dLS < bestLS {
				bestLS = dLS
			}
			dFull := timeEngineSolve(cfg, a, p, core.LowerAuto, b)
			if dFull > 0 && dFull < bestFull {
				bestFull = dFull
			}
		}
		row := Fig12Row{
			Name:    inst.Spec.Name,
			CSRLS:   ratio(serialBase, bestCSRLS),
			LS:      ratio(serialBase, bestLS),
			LSLower: ratio(serialBase, bestFull),
		}
		rows = append(rows, row)
		t.AddRow(row.Name, F(row.CSRLS), F(row.LS), F(row.LSLower))
		eLS.Close()
		eFull.Close()
	}
	t.Render(cfg.Out)
	return rows
}

func timeEngineSolve(cfg Config, a *sparse.CSR, threads int, lower core.LowerMethod, b []float64) time.Duration {
	e, err := core.Factorize(a, cfg.EngineOptions(threads, lower))
	if err != nil {
		return 0
	}
	defer e.Close()
	ctx := e.NewContext()
	x := make([]float64, a.N)
	sweep := func() {
		ctx.SolveLower(b, x)
		ctx.SolveUpper(x, x)
	}
	// Time the route the sweeps settle on, not the inline start.
	for start := time.Now(); !e.RouteSettled() && time.Since(start) < time.Second; {
		sweep()
	}
	return TimeBest(cfg.Repeats, sweep)
}

// ---------------------------------------------------------------------------
// Table II — iteration counts by ordering
// ---------------------------------------------------------------------------

// Table2Row holds PCG iteration counts per ordering for one matrix.
type Table2Row struct {
	Name  string
	Iters map[string]int
}

// Table2Orderings lists the paper's columns in order.
var Table2Orderings = []string{"AMD", "RCM", "ND", "NAT", "LS-RCM", "LS-ND"}

// RunTable2 reproduces the ordering/iteration study on group A with
// ILU(0)-preconditioned CG to relative residual 1e-6.
func RunTable2(cfg Config) []Table2Row {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title:   "Table II — PCG iterations to 1e-6 by ordering (group A)",
		Headers: append([]string{"Matrix"}, Table2Orderings...),
	}
	var rows []Table2Row
	for _, inst := range BuildSuite(cfg, "A", false) {
		row := Table2Row{Name: inst.Spec.Name, Iters: map[string]int{}}
		cells := []string{inst.Spec.Name}
		for _, ord := range Table2Orderings {
			iters := iterationCount(cfg, inst.Raw, ord)
			row.Iters[ord] = iters
			if iters < 0 {
				cells = append(cells, "fail")
			} else {
				cells = append(cells, D(iters))
			}
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	t.Render(cfg.Out)
	return rows
}

// iterationCount runs ILU(0)-PCG under the named ordering. Plain
// orderings use the serial reference factorization (no level-set
// reordering); LS-X composes Javelin's level-set permutation on top
// of X, exactly as the engine does internally.
func iterationCount(cfg Config, raw *sparse.CSR, ord string) int {
	var a *sparse.CSR
	switch ord {
	case "AMD":
		a = PreorderWith(raw, order.AMD)
	case "RCM", "LS-RCM":
		a = PreorderWith(raw, order.RCM)
	case "ND", "LS-ND":
		a = PreorderWith(raw, order.ND)
	case "NAT":
		a = raw
	}
	n := a.N
	b := make([]float64, n)
	rng := util.NewRNG(777)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	opt := krylov.Options{Tol: 1e-6, MaxIter: 20000}

	if ord == "LS-RCM" || ord == "LS-ND" {
		e, err := core.Factorize(a, cfg.EngineOptions(util.MaxThreads(), core.LowerAuto))
		if err != nil {
			return -1
		}
		defer e.Close()
		st, err := krylov.CG(a, e.NewContext(), b, x, opt)
		if err != nil || !st.Converged {
			return -1
		}
		return st.Iterations
	}
	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		return -1
	}
	pc := &serialPrec{f: f}
	st, err := krylov.CG(a, pc, b, x, opt)
	if err != nil || !st.Converged {
		return -1
	}
	return st.Iterations
}

// serialPrec applies the serial reference factor as a preconditioner.
type serialPrec struct {
	f   *ilu.Factor
	tmp []float64
}

// Apply solves L·U·z = r serially.
func (p *serialPrec) Apply(r, z []float64) {
	if p.tmp == nil {
		p.tmp = make([]float64, p.f.N())
	}
	trisolve.SolveLowerSerial(p.f, r, p.tmp)
	trisolve.SolveUpperSerial(p.f, p.tmp, z)
}

// ---------------------------------------------------------------------------
// Fig. 13 — group-A speedup under RCM preordering (serial-ND base)
// ---------------------------------------------------------------------------

// Fig13Row is one group-A matrix's RCM speedup.
type Fig13Row struct {
	Name    string
	Speedup float64 // LS at max threads, base = serial with ND order
}

// RunFig13 reproduces the RCM sensitivity study: group-A matrices
// preordered with RCM, factored with LS only, speedup relative to the
// serial factorization under ND ordering.
func RunFig13(cfg Config) []Fig13Row {
	cfg = cfg.WithDefaults()
	p := cfg.Threads[len(cfg.Threads)-1]
	t := &Table{
		Title:   fmt.Sprintf("Fig. 13 — group A, RCM preorder, LS speedup at %d threads (base: serial ND)", p),
		Headers: []string{"Matrix", "Speedup"},
	}
	var rows []Fig13Row
	for _, inst := range BuildSuite(cfg, "A", false) {
		nd := PreorderWith(inst.Raw, order.ND)
		rcm := PreorderWith(inst.Raw, order.RCM)
		base := timeJavelinILU(cfg, nd, 1, core.LowerNone)
		par := timeJavelinILU(cfg, rcm, p, core.LowerNone)
		row := Fig13Row{Name: inst.Spec.Name, Speedup: ratio(base, par)}
		rows = append(rows, row)
		t.AddRow(row.Name, F(row.Speedup))
	}
	t.Render(cfg.Out)
	return rows
}

func threadHeaders(ps []int) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprintf("p=%d", p)
	}
	return out
}
