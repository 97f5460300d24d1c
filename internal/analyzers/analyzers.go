// Package analyzers implements javelin-vet's repo-specific static
// analyzers: machine checks for the contracts the codebase otherwise
// enforces only by prose and tests.
//
//   - pinpair: every AcquireContext/ReleaseContext and every epoch
//     Pin/Unpin must be paired on every return path (the
//     epoch-pinning contract of internal/core — a leaked pin strands a
//     retired factor buffer forever).
//   - kernelpurity: the numeric kernel bodies in internal/kernels must
//     stay deterministic — no math.FMA (contracts a mul+add into one
//     rounding), no map iteration (nondeterministic order), no
//     goroutine launches, no time/math/rand imports.
//   - asmvet: hand-written assembly checked against arch-keyed opcode
//     tables — no FMA opcode anywhere (the no-FMA bitwise-identity
//     rule enforced at the opcode level), and on amd64 VZEROUPPER
//     before every RET of an AVX-bodied TEXT block.
//   - atomicvet: no mixed atomic/plain access to a field; atomic-typed
//     fields used only through their API; //javelin:plain-under-mu
//     claims verified flow-sensitively against the held-lock state.
//   - lockvet: Lock/Unlock paired on every return path (defer-aware,
//     *Locked convention honored), and the static lock-acquisition-
//     order graph over mutex classes must stay acyclic.
//   - ctxloop: every for loop in the krylov solvers reaches a Ctx
//     check before its first kernel-scale call, keeping the
//     cancel-within-one-iteration promise.
//   - noallocgraph (module-wide): a function annotated
//     //javelin:noalloc has no direct heap-allocation site in its own
//     body, and every same-module callee it statically reaches is
//     itself noalloc, waived with //javelin:alloc-ok, or proven clean —
//     all verified against the compiler's own escape analysis
//     (go build -gcflags=-m, once per package).
//
// The suite is dependency-free by design: packages are loaded with
// `go list`, parsed with go/parser, and type-checked with go/types
// against the build cache's export data, so go.mod keeps zero
// requires. The cmd/javelin-vet driver wires the suite into CI as a
// blocking job.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic at a source position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col,omitempty"`
	Message  string `json:"message"`
}

// String formats the finding in the conventional file:line:col form.
func (f Finding) String() string {
	pos := fmt.Sprintf("%s:%d", f.File, f.Line)
	if f.Col > 0 {
		pos = fmt.Sprintf("%s:%d", pos, f.Col)
	}
	return fmt.Sprintf("%s: [%s] %s", pos, f.Analyzer, f.Message)
}

// Pass carries one loaded package through one analyzer run.
type Pass struct {
	// Name of the running analyzer; stamped onto findings.
	Name string

	Fset    *token.FileSet
	Files   []*ast.File // parsed non-test Go files, parallel to GoFiles
	GoFiles []string    // absolute paths
	SFiles  []string    // absolute paths of assembly files
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string // import path

	findings *[]Finding
}

// Report records a finding at a token position.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	pp := p.Fset.Position(pos)
	p.ReportAt(pp.Filename, pp.Line, pp.Column, format, args...)
}

// ReportAt records a finding at an explicit file position (used by the
// assembly checker).
func (p *Pass) ReportAt(file string, line, col int, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Name,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SortFindings orders findings by file, line, column, analyzer, then
// message, so driver output (text and -json alike) is deterministic
// regardless of analyzer order, package load order, or map iteration
// inside individual analyzers.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzer is one named check over a loaded package, or — when
// RunModule is set instead of Run — one check over the whole loaded
// package set at once (for call-graph analyses that cross package
// boundaries, like noallocgraph).
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path (nil: every package). Ignored for module
	// analyzers.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// All returns the full suite in fixed order.
func All() []*Analyzer {
	return []*Analyzer{PinPair, KernelPurity, AsmVet, AtomicVet, LockVet, CtxLoop, NoAllocGraph}
}

// ModulePass carries the whole loaded package set through one module
// analyzer run.
type ModulePass struct {
	Name string
	Pkgs []*Package

	findings *[]Finding
}

// ReportAt records a finding at an explicit file position.
func (p *ModulePass) ReportAt(file string, line, col int, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Name,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report records a finding at a token position resolved through the
// owning package's FileSet.
func (p *ModulePass) Report(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	pp := fset.Position(pos)
	p.ReportAt(pp.Filename, pp.Line, pp.Column, format, args...)
}

// RunModuleAnalyzer runs a module analyzer over the loaded package
// set, appending findings to out.
func RunModuleAnalyzer(a *Analyzer, pkgs []*Package, out *[]Finding) error {
	if a.RunModule == nil {
		return nil
	}
	pass := &ModulePass{Name: a.Name, Pkgs: pkgs, findings: out}
	if err := a.RunModule(pass); err != nil {
		return fmt.Errorf("%s: %w", a.Name, err)
	}
	return nil
}

// RunAnalyzer runs a on pkg, appending findings to out. Packages the
// analyzer does not apply to are skipped silently; module analyzers
// (Run nil) are skipped here and run through RunModuleAnalyzer.
func RunAnalyzer(a *Analyzer, pkg *Package, out *[]Finding) error {
	if a.Run == nil {
		return nil
	}
	if a.AppliesTo != nil && !a.AppliesTo(pkg.PkgPath) {
		return nil
	}
	pass := &Pass{
		Name:     a.Name,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		GoFiles:  pkg.GoFiles,
		SFiles:   pkg.SFiles,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		PkgPath:  pkg.PkgPath,
		findings: out,
	}
	if err := a.Run(pass); err != nil {
		return fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	return nil
}

// isKernelsPackage gates kernelpurity to the numeric kernel package
// (fixture packages opt in by path suffix too).
func isKernelsPackage(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/kernels") ||
		strings.HasSuffix(pkgPath, "testdata/src/kernelpurity")
}
