package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// NoAllocGraph extends hotalloc transitively: starting from every
// //javelin:noalloc function, it walks the static call graph and
// requires each reachable same-module callee to be covered by one of
//
//   - its own //javelin:noalloc annotation (it is a root of its own,
//     checked in full by hotalloc and this pass),
//   - an //javelin:alloc-ok waiver — either on the call-site line (or
//     the line above), accepting this handoff, or in the callee's doc
//     comment, accepting the whole callee as a deliberate cold path,
//   - or proof from the compiler's escape analysis that its body has
//     no direct allocation site (hotalloc's own evidence and filters),
//     in which case the walk continues into *its* callees.
//
// This closes the gap hotalloc documents: a noalloc function calling
// an innocent-looking helper that allocates was previously caught only
// if an AllocsPerRun test happened to cover the path. Dynamic calls
// (interface methods, function values — the kernel dispatch tables,
// Preconditioner.Apply, region bodies) are out of static reach and
// remain the benchmarks' job; go statements and calls outside the
// loaded package set are likewise not walked.
//
// The pass runs once over the whole loaded package set, so run it with
// ./... — with a narrower pattern, cross-package edges whose callee
// package is not loaded are skipped, not failed. Functions are keyed
// by full name: each package is type-checked against its
// dependencies' export data, so a callee in another package is a
// different *types.Func there than where it is declared.
var NoAllocGraph = &Analyzer{
	Name:      "noallocgraph",
	Doc:       "every same-module callee reachable from a //javelin:noalloc root is annotated, waived, or provably allocation-free",
	RunModule: runNoAllocGraph,
}

// modFunc is one function in the module-wide call graph.
type modFunc struct {
	pkg     *Package
	decl    *ast.FuncDecl
	file    string // absolute path
	start   int    // body line span
	end     int
	noalloc bool
	allocOK string // non-empty: doc-level waiver text (or "waived")
	callees []modCall
}

// modCall is one statically resolved call site.
type modCall struct {
	name string // the callee's (*types.Func).FullName
	pos  token.Pos
	line int
	file string
}

func runNoAllocGraph(pass *ModulePass) error {
	funcs := map[string]*modFunc{}      // declared functions by full name
	waived := map[string]map[int]bool{} // file -> alloc-ok waiver lines
	var roots []string

	for _, pkg := range pass.Pkgs {
		for i, f := range pkg.Files {
			file := pkg.GoFiles[i]
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, allocOKDirective) {
						if waived[file] == nil {
							waived[file] = map[int]bool{}
						}
						waived[file][pkg.Fset.Position(c.Pos()).Line] = true
					}
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				mf := &modFunc{
					pkg:   pkg,
					decl:  fd,
					file:  file,
					start: pkg.Fset.Position(fd.Body.Pos()).Line,
					end:   pkg.Fset.Position(fd.Body.End()).Line,
				}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if strings.HasPrefix(c.Text, noallocDirective) {
							mf.noalloc = true
						}
						if strings.HasPrefix(c.Text, allocOKDirective) {
							mf.allocOK = strings.TrimSpace(strings.TrimPrefix(c.Text, allocOKDirective))
							if mf.allocOK == "" {
								mf.allocOK = "waived"
							}
						}
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, spawn := n.(*ast.GoStmt); spawn {
						return false // runs on a goroutine of its own
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn := staticCallee(pkg.Info, call); fn != nil {
						mf.callees = append(mf.callees, modCall{
							name: fn.FullName(),
							pos:  call.Pos(),
							line: pkg.Fset.Position(call.Pos()).Line,
							file: pkg.Fset.Position(call.Pos()).Filename,
						})
					}
					return true
				})
				funcs[obj.FullName()] = mf
				if mf.noalloc {
					roots = append(roots, obj.FullName())
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := funcs[roots[i]], funcs[roots[j]]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.start < b.start
	})

	ev := &allocEvidence{diags: map[string][]escapeDiag{}}
	reported := map[string]bool{} // one witness chain per offending callee

	for _, root := range roots {
		rootName := funcs[root].decl.Name.Name
		visited := map[string]bool{root: true}
		var walk func(mf *modFunc, chain string)
		walk = func(mf *modFunc, chain string) {
			for _, call := range mf.callees {
				callee := funcs[call.name]
				if callee == nil {
					continue // outside the loaded package set (stdlib, narrow pattern)
				}
				if visited[call.name] {
					continue
				}
				visited[call.name] = true
				if callee.noalloc {
					continue // a root of its own
				}
				if callee.allocOK != "" {
					continue // whole-callee waiver
				}
				if waived[call.file][call.line] || waived[call.file][call.line-1] {
					continue // call-site waiver
				}
				detail, allocates, err := ev.allocSite(callee, waived)
				if err != nil {
					// Escape analysis unavailable for that package (e.g.
					// cgo-free cross-compile quirk): be conservative and
					// keep walking rather than fail the build.
					walk(callee, chain+" -> "+callee.decl.Name.Name)
					continue
				}
				if allocates {
					if !reported[call.name] {
						reported[call.name] = true
						pass.Report(mf.pkg.Fset, call.pos,
							"//javelin:noalloc %s reaches %s (%s), which allocates: %s — annotate it %s, prove it clean, or waive this call with %s",
							rootName, callee.decl.Name.Name, chain+" -> "+callee.decl.Name.Name,
							detail, noallocDirective, allocOKDirective)
					}
					continue
				}
				walk(callee, chain+" -> "+callee.decl.Name.Name)
			}
		}
		walk(funcs[root], rootName)
	}
	return nil
}

// allocEvidence lazily gathers per-package escape diagnostics (one
// `go build -gcflags=-m` per package directory, replayed from the
// build cache) and answers whether a function body contains a
// confirmed, unwaived allocation site.
type allocEvidence struct {
	diags map[string][]escapeDiag // keyed by package dir; nil entry = load failed
	errs  map[string]error
}

func (ev *allocEvidence) packageDiags(dir string) ([]escapeDiag, error) {
	if d, ok := ev.diags[dir]; ok {
		return d, ev.errs[dir]
	}
	d, err := escapeDiagnostics(dir)
	if err != nil {
		if ev.errs == nil {
			ev.errs = map[string]error{}
		}
		ev.errs[dir] = err
	}
	ev.diags[dir] = d
	return d, err
}

// allocSite reports the first confirmed allocation in mf's body, in
// hotalloc's sense: an escape diagnostic of a direct allocation form,
// AST-confirmed at its position, not covered by an alloc-ok waiver.
func (ev *allocEvidence) allocSite(mf *modFunc, waived map[string]map[int]bool) (detail string, allocates bool, err error) {
	diags, err := ev.packageDiags(mf.pkg.Dir)
	if err != nil {
		return "", false, err
	}
	pass := &Pass{Fset: mf.pkg.Fset, Files: mf.pkg.Files, GoFiles: mf.pkg.GoFiles}
	for _, d := range diags {
		kind := allocKind(d.msg)
		if kind == allocNone {
			continue
		}
		abs := d.file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(mf.pkg.Dir, abs)
		}
		if abs != mf.file || d.line < mf.start || d.line > mf.end {
			continue
		}
		if waived[abs][d.line] || waived[abs][d.line-1] {
			continue
		}
		if !confirmAllocNode(pass, abs, d.line, kind) {
			continue
		}
		return d.msg + " at " + filepath.Base(abs) + ":" + itoa(d.line), true, nil
	}
	return "", false, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
