// Command javelin-bench regenerates the paper's evaluation tables and
// figures on the host machine.
//
// Usage:
//
//	javelin-bench -exp all -scale 0.05
//	javelin-bench -exp fig10 -threads 1,2,4,8 -matrices wang3,scircuit
//	javelin-bench -json -scale 0.02 -threads 1,2 > BENCH_now.json
//	javelin-bench -json -stats -scale 0.02 -threads 1,2 -matrices wang3
//	javelin-bench -compare BENCH_pr6.json -variant go-blocked -scale 0.02 -threads 1,2
//	javelin-bench -json -variant go-blocked,avx2 > BENCH_paired.json
//
// Experiments: table1, table2, table3, table4, fig9, fig10, fig11,
// fig12, fig13, all. Figures 10 and 11 are the same strong-scaling
// experiment at different thread sweeps (the paper's Haswell and KNL
// machines); here both sweep -threads.
//
// -json switches to machine-readable output: a JSON array of
// {matrix, n, nnz, method, op, threads, ns_per_op} records covering
// refactorization and preconditioner application across the thread
// sweep — the format the repository's BENCH_*.json perf trajectory
// files use.
//
// -compare re-measures with the current flags and prints per-record
// new/old time ratios against a checked-in BENCH_*.json baseline
// (either JSON shape). The exit status is nonzero when any matched
// record runs slower than -threshold times its baseline, so the mode
// can gate perf in CI; records only one side has are listed but never
// fail the run.
//
// -stats runs every engine on one shared execution runtime (sized to
// the widest thread count in the sweep) and reports its activity
// counters — regions, chunk claims, park/wake churn — after the
// experiments. In text mode the
// counters print as a table; combined with -json they are emitted as
// a "runtime_stats" object alongside the records.
//
// -variant forces a numeric kernel table (kernels.Select before any
// engine is constructed), overriding the build's CPU-detected
// default — the A/B switch for comparing kernel variants on equal
// terms. With -json it accepts a comma-separated list and runs the
// whole suite once per table, so a single invocation produces paired
// records distinguished by their "variant" field. -list-variants
// prints the registered table names and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"javelin/internal/bench"
	"javelin/internal/exec"
	"javelin/internal/kernels"
	"javelin/internal/util"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("javelin-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: table1|table2|table3|table4|fig9|fig10|fig11|fig12|fig13|all")
		scale     = fs.Float64("scale", 0.05, "suite scale factor in (0,1]; 1.0 = paper-size matrices")
		threads   = fs.String("threads", "", "comma-separated thread counts (default 1,2,4,...,GOMAXPROCS)")
		repeats   = fs.Int("repeats", 3, "timing repetitions (best-of)")
		matrices  = fs.String("matrices", "", "comma-separated Table-I names to include (default all)")
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON records instead of tables")
		stats     = fs.Bool("stats", false, "run on one shared runtime and report its activity counters")
		compare   = fs.String("compare", "", "BENCH_*.json baseline: re-measure and print per-record new/old ratios")
		threshold = fs.Float64("threshold", 1.5, "with -compare, exit nonzero when any ratio exceeds this")
		variant   = fs.String("variant", "", "force a numeric kernel table; comma-separated list (with -json) runs the suite once per table")
		listVar   = fs.Bool("list-variants", false, "print the registered kernel variant names, one per line, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listVar {
		for _, name := range kernels.Variants() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	var variantNames []string
	if *variant != "" {
		for _, tok := range strings.Split(*variant, ",") {
			name := strings.TrimSpace(tok)
			// Validate every name up front: a typo must not surface
			// only after the first table's suite already ran.
			if _, err := kernels.Lookup(name); err != nil {
				fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
				return 2
			}
			variantNames = append(variantNames, name)
		}
		if len(variantNames) > 1 && !*jsonOut {
			fmt.Fprintf(stderr, "javelin-bench: multiple -variant names need -json (paired records)\n")
			return 2
		}
		if len(variantNames) > 1 && (*stats || *compare != "") {
			fmt.Fprintf(stderr, "javelin-bench: multiple -variant names cannot combine with -stats or -compare\n")
			return 2
		}
		// Select before any engine construction: engines capture the
		// active table at Factorize, so this decides every record.
		if _, err := kernels.Select(variantNames[0]); err != nil {
			fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
			return 2
		}
	}

	cfg := bench.Config{
		Scale:   *scale,
		Repeats: *repeats,
		Out:     stdout,
	}
	if *threads != "" {
		for _, tok := range strings.Split(*threads, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || p < 1 {
				fmt.Fprintf(stderr, "javelin-bench: bad thread count %q\n", tok)
				return 2
			}
			cfg.Threads = append(cfg.Threads, p)
		}
	}
	if *matrices != "" {
		for _, tok := range strings.Split(*matrices, ",") {
			cfg.Matrices = append(cfg.Matrices, strings.TrimSpace(tok))
		}
	}

	var rt *exec.Runtime
	if *stats {
		// One shared pool for every engine, at least as wide as the
		// widest thread count in the sweep (each engine's Threads is
		// clamped to it), so the counters cover the whole run.
		width := util.MaxThreads()
		for _, p := range cfg.WithDefaults().Threads {
			if p > width {
				width = p
			}
		}
		rt = exec.New(width)
		defer rt.Close()
		cfg.Runtime = rt
		cfg.Stats = true
	}

	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
			return 2
		}
		old, err := bench.LoadRecords(data)
		if err != nil {
			fmt.Fprintf(stderr, "javelin-bench: %s: %v\n", *compare, err)
			return 2
		}
		recs, err := bench.CollectRecords(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
			return 1
		}
		pairs, onlyOld, onlyNew := bench.CompareRecords(old, recs)
		if bench.PrintComparison(stdout, pairs, onlyOld, onlyNew, *threshold) > 0 {
			return 1
		}
		return 0
	}

	if *jsonOut {
		if len(variantNames) > 1 {
			// Paired A/B records: the suite once per forced table, all
			// records in one array, distinguished by "variant".
			var all []bench.Record
			for _, name := range variantNames {
				if _, err := kernels.Select(name); err != nil {
					fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
					return 1
				}
				recs, err := bench.CollectRecords(cfg)
				if err != nil {
					fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
					return 1
				}
				all = append(all, recs...)
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(all); err != nil {
				fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
				return 1
			}
			return 0
		}
		if err := bench.RunJSON(cfg); err != nil {
			fmt.Fprintf(stderr, "javelin-bench: %v\n", err)
			return 1
		}
		return 0
	}

	runExp := func(name string) int {
		switch name {
		case "table1":
			bench.RunTable1(cfg)
		case "table2":
			bench.RunTable2(cfg)
		case "table3":
			bench.RunTable3(cfg)
		case "table4":
			bench.RunTable4(cfg)
		case "fig9":
			bench.RunFig9(cfg)
		case "fig10":
			bench.RunScaling(cfg, "Fig. 10 (Haswell analogue)")
		case "fig11":
			bench.RunScaling(cfg, "Fig. 11 (KNL analogue)")
		case "fig12":
			bench.RunFig12(cfg)
		case "fig13":
			bench.RunFig13(cfg)
		default:
			fmt.Fprintf(stderr, "javelin-bench: unknown experiment %q\n", name)
			return 2
		}
		return 0
	}

	printStats := func() {
		if rt != nil {
			fmt.Fprintf(stdout, "\n== runtime stats (shared pool, %d lanes) ==\n%s\n",
				rt.Parallelism(), rt.Stats())
		}
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "table3", "table4", "fig9",
			"fig10", "fig12", "table2", "fig13"} {
			if rc := runExp(name); rc != 0 {
				return rc
			}
		}
		printStats()
		return 0
	}
	rc := runExp(*exp)
	if rc == 0 {
		printStats()
	}
	return rc
}
