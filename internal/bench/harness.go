// Package bench is the experiment harness that regenerates every
// table and figure of the paper's evaluation (Tables I–IV, Figs.
// 9–13) on the host machine. Absolute numbers differ from the
// paper's Haswell/KNL testbeds; the harness reports the same derived
// quantities (speedups, slowdowns, iteration counts, level
// statistics) so the qualitative shape can be compared directly.
package bench

import (
	"fmt"
	"io"
	"time"

	"javelin/internal/core"
	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/order"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// Config controls an experiment run.
type Config struct {
	// Scale shrinks the Table-I matrix dimensions (1.0 = paper size).
	// The default harness scale of 0.1 keeps full-suite runs in
	// minutes on a laptop while preserving structure.
	Scale float64
	// Threads are the worker counts swept by scaling experiments;
	// empty means {1, 2, 4, ..., GOMAXPROCS}.
	Threads []int
	// Repeats: timings take the best of this many runs (default 3).
	Repeats int
	// Out receives the rendered tables.
	Out io.Writer
	// Matrices filters the suite by name; empty means all.
	Matrices []string
	// Runtime, when non-nil, is a shared execution runtime every
	// engine the harness builds schedules on (instead of per-engine
	// private pools). Size it to at least the widest thread count in
	// the sweep: each engine's Threads is clamped to its width. The
	// caller owns and closes it. Runtime.Stats() then aggregates the whole
	// run's scheduler activity — the counters behind the tools'
	// -stats flag.
	Runtime *exec.Runtime
	// Stats adds the shared runtime's counter snapshot to
	// machine-readable output (RunJSON emits a "runtime_stats" object
	// alongside the records). Requires Runtime to be set.
	Stats bool
}

// EngineOptions returns the paper-default engine configuration at the
// given thread count and lower method, scheduled on cfg.Runtime when
// one is set.
func (c Config) EngineOptions(threads int, lower core.LowerMethod) core.Options {
	opt := core.DefaultOptions()
	opt.Threads = threads
	opt.Lower = lower
	opt.Runtime = c.Runtime
	return opt
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if len(c.Threads) == 0 {
		mx := util.MaxThreads()
		for p := 1; p < mx; p *= 2 {
			c.Threads = append(c.Threads, p)
		}
		c.Threads = append(c.Threads, mx)
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Instance is one suite matrix prepared for an experiment.
type Instance struct {
	Spec gen.Spec
	// A is the matrix after the paper's standard preordering
	// (zero-free diagonal, then ND) unless the experiment overrides.
	A *sparse.CSR
	// Raw is the generated matrix before preordering.
	Raw *sparse.CSR
}

// BuildSuite generates (and preorders) the selected suite matrices.
// groups is "", "A", or "B". The paper's standard preordering is
// Dulmage–Mendelsohn (zero-free diagonal) followed by Nested
// Dissection.
func BuildSuite(cfg Config, groups string, preorder bool) []Instance {
	var out []Instance
	for _, spec := range gen.Suite() {
		if groups != "" && spec.Group != groups {
			continue
		}
		if len(cfg.Matrices) > 0 && !contains(cfg.Matrices, spec.Name) {
			continue
		}
		out = append(out, BuildInstance(spec, cfg.Scale, preorder))
	}
	return out
}

// BuildInstance generates one matrix at the given scale, optionally
// applying the standard DM+ND preordering.
func BuildInstance(spec gen.Spec, scale float64, preorder bool) Instance {
	raw := spec.Build(spec.ScaledN(scale))
	a := raw
	if preorder {
		a = Preorder(raw)
	}
	return Instance{Spec: spec, A: a, Raw: raw}
}

// Preorder applies the paper's standard preprocessing: a
// Dulmage–Mendelsohn style zero-free-diagonal row permutation, then
// symmetric Nested Dissection.
func Preorder(a *sparse.CSR) *sparse.CSR {
	if !a.HasFullDiagonal() {
		rp := order.ZeroFreeDiagonal(a)
		a = sparse.PermuteRows(a, rp)
	}
	nd := order.ComputeND(a)
	return sparse.PermuteSym(a, nd, util.MaxThreads())
}

// PreorderWith applies zero-free diagonal then the given symmetric
// ordering method.
func PreorderWith(a *sparse.CSR, m order.Method) *sparse.CSR {
	if !a.HasFullDiagonal() {
		rp := order.ZeroFreeDiagonal(a)
		a = sparse.PermuteRows(a, rp)
	}
	p := order.Compute(m, a)
	return sparse.PermuteSym(a, p, util.MaxThreads())
}

// TimeBest returns the best per-call wall time of f over repeats
// measurement rounds. Calls shorter than the sampling floor are
// batched — many calls per timed round, divided out — because a
// single microsecond-scale call cannot be resolved against timer
// overhead and scheduler jitter; a one-shot minimum of such calls
// reads as noise, not as the operation's cost.
func TimeBest(repeats int, f func()) time.Duration {
	const minSample = 200 * time.Microsecond
	// One timed call calibrates the batch size (and warms f's caches
	// and branch predictors outside the measured rounds).
	t0 := time.Now()
	f()
	d := time.Since(t0)
	iters := 1
	if d < minSample {
		if d < 50*time.Nanosecond {
			d = 50 * time.Nanosecond
		}
		iters = int(minSample / d)
		if iters > 10000 {
			iters = 10000
		}
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		for j := 0; j < iters; j++ {
			f()
		}
		if d := time.Since(t0) / time.Duration(iters); d < best {
			best = d
		}
	}
	return best
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Table renders fixed-width text tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	for i := 0; i < total-2; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		line(r)
	}
}

// F formats a float with 2 decimals; NaN-safe.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }

// D formats an int.
func D(x int) string { return fmt.Sprintf("%d", x) }
