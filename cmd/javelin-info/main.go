// Command javelin-info prints structural statistics of the test
// suite: Table I (suite overview), Table III (lower(A+Aᵀ) level sets
// and the stage-split sensitivity parameter), and Table IV (lower(A)
// level sets).
//
// Usage:
//
//	javelin-info -table 1 -scale 0.1
//	javelin-info -table 3 -matrices af_shell3,fem_filter
//	javelin-info -table 1 -stats
//
// Output leads with the kernel dispatch capability report: the
// active numeric kernel variant, the CPU features runtime detection
// found (which decide whether the assembly tables registered at all),
// and — for an asm-backed variant — exactly which table slots run
// assembly bodies rather than Go ones.
//
// The capability report also includes an epoch-discipline line: one
// UpdateValues → Refactorize round trip of the versioned-matrix
// machinery on a tiny system, printing the matrix/factor epoch
// numbers and the update/refactorize counters it produced, so the
// live-update surface is observable from the CLI.
//
// -stats appends the process-wide execution runtime's activity
// counter deltas (regions, chunk claims, park/wake churn) for the
// printed tables — the structural passes (symmetric permutation
// scatter, level-set computation) run on that shared pool.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"javelin"
	"javelin/internal/bench"
	"javelin/internal/cpuid"
	"javelin/internal/exec"
	"javelin/internal/kernels"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("javelin-info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 1, "paper table to print: 1, 3, or 4")
		scale    = fs.Float64("scale", 0.1, "suite scale factor in (0,1]")
		matrices = fs.String("matrices", "", "comma-separated Table-I names (default all)")
		stats    = fs.Bool("stats", false, "append the default runtime's activity counter deltas")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Capability report: which numeric kernel table this binary
	// dispatches to (build- and CPU-dependent — "avx2" when detection
	// confirms it, "go-reference" under -tags purego), what the CPU
	// probe found, and which slots of the active table run assembly.
	// Printed up front so perf numbers recorded alongside the tables
	// are attributable to the exact kernel bodies that produced them.
	fmt.Fprintf(stdout, "numeric kernels: %s (of %s)\n",
		kernels.Variant(), strings.Join(kernels.Variants(), ", "))
	fmt.Fprintf(stdout, "cpu features: %s\n", cpuid.Detected())
	if slots := kernels.Active().AsmSlots; len(slots) > 0 {
		fmt.Fprintf(stdout, "asm-backed slots: %s\n", strings.Join(slots, " "))
	} else {
		fmt.Fprintf(stdout, "asm-backed slots: none (pure Go table)\n")
	}
	if err := printEpochReport(stdout); err != nil {
		fmt.Fprintf(stderr, "javelin-info: epoch report: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout)

	cfg := bench.Config{Scale: *scale, Out: stdout}
	if *matrices != "" {
		for _, tok := range strings.Split(*matrices, ",") {
			cfg.Matrices = append(cfg.Matrices, strings.TrimSpace(tok))
		}
	}
	// Snapshot only when asked: Default() lazily spawns the
	// process-wide pool, a side effect plain table runs should skip.
	var before exec.Stats
	if *stats {
		before = exec.Default().Stats()
	}
	switch *table {
	case 1:
		bench.RunTable1(cfg)
	case 3:
		bench.RunTable3(cfg)
	case 4:
		bench.RunTable4(cfg)
	default:
		fmt.Fprintf(stderr, "javelin-info: no such table %d (use 1, 3 or 4)\n", *table)
		return 2
	}
	if *stats {
		fmt.Fprintf(stdout, "\n== runtime stats (process default pool) ==\n%s\n",
			exec.Default().Stats().Sub(before))
	}
	return 0
}

// printEpochReport exercises one update → refactorize cycle of the
// versioned-matrix epoch machinery on a tiny grid system and prints
// the epoch numbers and counters: matrix epoch/updates from the
// VersionedMatrix, factor epoch and refactorize/failure counters from
// the engine. A healthy build reports the pair advancing in lockstep
// to (2, 2) with zero failures.
func printEpochReport(w io.Writer) error {
	m := javelin.GridLaplacian(8, 8, 1, javelin.Star5, 0.2)
	vm, err := javelin.NewVersionedMatrix(m)
	if err != nil {
		return err
	}
	opt := javelin.DefaultOptions()
	opt.Threads = 1
	p, err := javelin.Factorize(m, opt)
	if err != nil {
		return err
	}
	defer p.Close()
	if err := vm.UpdateMatrix(m); err != nil {
		return err
	}
	if err := p.Refactorize(vm.Matrix()); err != nil {
		return err
	}
	e := p.Engine()
	fmt.Fprintf(w, "epoch discipline: matrix epoch %d (%d updates), factor epoch %d (%d refactorizes, %d failed)\n",
		vm.Epoch(), vm.Updates(), e.FactorEpoch(), e.Refactorizes(), e.RefactorizeFailures())
	return nil
}
