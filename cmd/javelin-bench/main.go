// Command javelin-bench regenerates the paper's evaluation tables and
// figures on the host machine.
//
// Usage:
//
//	javelin-bench -exp all -scale 0.05
//	javelin-bench -exp fig10 -threads 1,2,4,8 -matrices wang3,scircuit
//	javelin-bench -exp table1 -stats -scale 0.02 -matrices wang3
//	javelin-bench -exp fig12 -variant go-blocked -scale 0.02
//
// Experiments: table1, table2, table3, table4, fig9, fig10, fig11,
// fig12, fig13, all. Figures 10 and 11 are the same strong-scaling
// experiment at different thread sweeps (the paper's Haswell and KNL
// machines); here both sweep -threads.
//
// -stats runs every engine on one shared execution runtime (sized to
// the widest thread count in the sweep) and prints its activity
// counters — regions, chunk claims, park/wake churn — as a table
// after the experiments.
//
// -variant forces a numeric kernel table (kernels.Select before any
// engine is constructed), overriding the build's CPU-detected
// default — the A/B switch for comparing kernel variants on equal
// terms. -list-variants prints the registered table names and exits.
//
// Performance claims about the library are measured with the
// repository's benchmark module (benchmark/), which records repeat
// spreads and the host; this command reproduces the paper's tables.
package main

import (
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
		exp      = fs.String("exp", "all", "experiment: table1|table2|table3|table4|fig9|fig10|fig11|fig12|fig13|all")
		scale    = fs.Float64("scale", 0.05, "suite scale factor in (0,1]; 1.0 = paper-size matrices")
		threads  = fs.String("threads", "", "comma-separated thread counts (default 1,2,4,...,GOMAXPROCS)")
		repeats  = fs.Int("repeats", 3, "timing repetitions (best-of)")
		matrices = fs.String("matrices", "", "comma-separated Table-I names to include (default all)")
		stats    = fs.Bool("stats", false, "run on one shared runtime and report its activity counters")
		variant  = fs.String("variant", "", "force a numeric kernel table by name")
		listVar  = fs.Bool("list-variants", false, "print the registered kernel variant names, one per line, and exit")
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

	if *variant != "" {
		// Select before any engine construction: engines capture the
		// active table at Factorize, so this decides every timing.
		if _, err := kernels.Select(*variant); err != nil {
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
