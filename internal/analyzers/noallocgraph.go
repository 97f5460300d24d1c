package analyzers

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// NoAllocGraph verifies the //javelin:noalloc directive: a function
// whose doc comment carries it must not allocate on its warm path,
// neither in its own body nor in any same-module function it
// statically reaches. The check drives the compiler's own escape
// analysis (`go build -gcflags=-m`, once per package directory it
// needs) and cross-references its diagnostics against the function
// bodies, so the verdict is the optimizer's, not a syntactic guess.
//
// In a root's own body it reports every direct allocation site. Only
// direct, in-body allocation forms count — "moved to heap", escaping
// make/new, escaping &composite literals, and escaping func literals —
// and each diagnostic is confirmed against the AST node at that
// position before it becomes a finding. Diagnostics the compiler
// attributes to a call site after inlining a callee are therefore
// dropped (the callee is checked on its own, below), which also keeps
// findings stable across compiler versions with different inlining
// decisions. Interface boxing diagnostics ("escapes to heap" on a
// plain expression) are ignored for the same reason.
//
// From every root it then walks the static call graph and requires
// each reachable same-module callee to be covered by one of
//
//   - its own //javelin:noalloc annotation (it is a root of its own,
//     checked in full),
//   - an //javelin:alloc-ok waiver — either on the call-site line (or
//     the line above), accepting this handoff, or in the callee's doc
//     comment, accepting the whole callee as a deliberate cold path,
//   - or a body with no direct allocation site in the sense above, in
//     which case the walk continues into *its* callees.
//
// A deliberate allocation in a body (e.g. the closure handed to the
// parallel dispatcher on a branch the serial path never takes) is
// waived with a //javelin:alloc-ok comment on the flagged line or the
// line above. Dynamic calls (interface methods, function values — the
// kernel dispatch tables, Preconditioner.Apply, region bodies) are out
// of static reach and remain the benchmarks' job; go statements and
// calls outside the loaded package set are likewise not walked. A
// package that does not build with -gcflags=-m fails the run: without
// its escape data no verdict can be given.
//
// The pass runs once over the whole loaded package set, so run it with
// ./... — with a narrower pattern, cross-package edges whose callee
// package is not loaded are skipped, not failed. Functions are keyed
// by full name: each package is type-checked against its
// dependencies' export data, so a callee in another package is a
// different *types.Func there than where it is declared.
var NoAllocGraph = &Analyzer{
	Name:      "noallocgraph",
	Doc:       "//javelin:noalloc functions, and every same-module callee they statically reach, have no unwaived direct heap-allocation site (checked against go build -gcflags=-m)",
	RunModule: runNoAllocGraph,
}

const (
	noallocDirective = "//javelin:noalloc"
	allocOKDirective = "//javelin:alloc-ok"
)

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

	ev := allocEvidence{}
	reported := map[string]bool{} // one witness chain per offending callee

	for _, root := range roots {
		rf := funcs[root]
		rootName := rf.decl.Name.Name
		sites, err := ev.sites(rf, waived)
		if err != nil {
			return err
		}
		for _, s := range sites {
			pass.ReportAt(s.file, s.line, s.col,
				"%s in //javelin:noalloc func %s: %s (fix it, or waive an intentional allocation with %s)",
				s.kind, rootName, s.msg, allocOKDirective)
		}

		visited := map[string]bool{root: true}
		var walk func(mf *modFunc, chain string) error
		walk = func(mf *modFunc, chain string) error {
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
				sites, err := ev.sites(callee, waived)
				if err != nil {
					return err
				}
				calleeChain := chain + " -> " + callee.decl.Name.Name
				if len(sites) == 0 {
					if err := walk(callee, calleeChain); err != nil {
						return err
					}
					continue
				}
				if !reported[call.name] {
					reported[call.name] = true
					s := sites[0]
					pass.Report(mf.pkg.Fset, call.pos,
						"//javelin:noalloc %s reaches %s (%s), which allocates: %s at %s:%d — annotate it %s, prove it clean, or waive this call with %s",
						rootName, callee.decl.Name.Name, calleeChain,
						s.msg, filepath.Base(s.file), s.line,
						noallocDirective, allocOKDirective)
				}
			}
			return nil
		}
		if err := walk(rf, rootName); err != nil {
			return err
		}
	}
	return nil
}

// allocEvidence holds the escape diagnostics of every package directory
// built so far, so a run builds each package with -gcflags=-m once.
type allocEvidence map[string][]escapeDiag

// allocSite is one confirmed, unwaived direct allocation.
type allocSite struct {
	escapeDiag
	kind allocNodeKind
}

// sites returns the direct allocation sites in mf's body: escape
// diagnostics of a direct allocation form inside the body's line span,
// not covered by an alloc-ok waiver and confirmed against the AST.
func (ev allocEvidence) sites(mf *modFunc, waived map[string]map[int]bool) ([]allocSite, error) {
	diags, ok := ev[mf.pkg.Dir]
	if !ok {
		var err error
		if diags, err = escapeDiagnostics(mf.pkg.Dir); err != nil {
			return nil, err
		}
		ev[mf.pkg.Dir] = diags
	}
	var sites []allocSite
	for _, d := range diags {
		kind := allocKind(d.msg)
		if kind == allocNone || d.file != mf.file || d.line < mf.start || d.line > mf.end {
			continue
		}
		if waived[d.file][d.line] || waived[d.file][d.line-1] {
			continue
		}
		// There must be a node of the matching kind at this position.
		// Diagnostics inherited from inlined callees point at a call
		// site with no such node and are dropped.
		if confirmAllocNode(mf.pkg, d.file, d.line, kind) {
			sites = append(sites, allocSite{d, kind})
		}
	}
	return sites, nil
}

type escapeDiag struct {
	file      string // absolute path
	line, col int
	msg       string
}

// escapeDiagnostics builds the package in dir with -gcflags=-m and
// parses the compiler's file:line:col diagnostics. The go build cache
// replays compiler output, so repeat runs stay fast and still see the
// diagnostics.
func escapeDiagnostics(dir string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m in %s: %v\n%s", dir, err, buf.String())
	}
	var diags []escapeDiag
	for _, line := range strings.Split(buf.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, ok := parseDiagLine(line)
		if !ok {
			continue
		}
		if !filepath.IsAbs(d.file) {
			d.file = filepath.Join(dir, d.file)
		}
		diags = append(diags, d)
	}
	return diags, nil
}

// parseDiagLine splits "file.go:12:6: message".
func parseDiagLine(s string) (escapeDiag, bool) {
	// Find ": " after the file:line:col prefix. The prefix itself
	// contains colons, so parse from the left: file has no ": ".
	i := strings.Index(s, ": ")
	if i < 0 {
		return escapeDiag{}, false
	}
	pos, msg := s[:i], s[i+2:]
	parts := strings.Split(pos, ":")
	if len(parts) < 2 {
		return escapeDiag{}, false
	}
	var line, col int
	var err error
	file := parts[0]
	if len(parts) >= 3 {
		file = strings.Join(parts[:len(parts)-2], ":")
		if line, err = strconv.Atoi(parts[len(parts)-2]); err != nil {
			return escapeDiag{}, false
		}
		if col, err = strconv.Atoi(parts[len(parts)-1]); err != nil {
			return escapeDiag{}, false
		}
	} else {
		if line, err = strconv.Atoi(parts[1]); err != nil {
			return escapeDiag{}, false
		}
	}
	if !strings.HasSuffix(file, ".go") {
		return escapeDiag{}, false
	}
	return escapeDiag{file: file, line: line, col: col, msg: msg}, true
}

type allocNodeKind int

const (
	allocNone allocNodeKind = iota
	allocMoved
	allocMake
	allocNew
	allocCompositeLit
	allocFuncLit
)

func (k allocNodeKind) String() string {
	switch k {
	case allocMoved:
		return "heap-moved variable"
	case allocMake:
		return "escaping make"
	case allocNew:
		return "escaping new"
	case allocCompositeLit:
		return "escaping composite literal"
	case allocFuncLit:
		return "escaping func literal"
	}
	return "allocation"
}

// allocKind classifies an escape diagnostic message as a direct
// allocation form, or allocNone for everything else (inlining notes,
// parameter leak notes, interface boxing, "does not escape", ...).
func allocKind(msg string) allocNodeKind {
	switch {
	case strings.HasPrefix(msg, "moved to heap:"):
		return allocMoved
	case !strings.HasSuffix(msg, "escapes to heap"):
		return allocNone
	case strings.HasPrefix(msg, "make("):
		return allocMake
	case strings.HasPrefix(msg, "new("):
		return allocNew
	case strings.HasPrefix(msg, "&"):
		return allocCompositeLit
	case strings.HasPrefix(msg, "func literal"):
		return allocFuncLit
	}
	return allocNone
}

// confirmAllocNode reports whether an AST node matching kind starts on
// the given line of file, one of pkg's Go files.
func confirmAllocNode(pkg *Package, file string, line int, kind allocNodeKind) bool {
	var af *ast.File
	for i, gf := range pkg.GoFiles {
		if gf == file {
			af = pkg.Files[i]
			break
		}
	}
	if af == nil {
		return false
	}
	found := false
	ast.Inspect(af, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if pkg.Fset.Position(n.Pos()).Line != line {
			// Still descend: children can start on a later line.
			return pkg.Fset.Position(n.End()).Line >= line
		}
		switch kind {
		case allocMoved:
			// Points at a declaration or use; any node on the line
			// confirms it is inside the body.
			found = true
		case allocMake, allocNew:
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					if (kind == allocMake && id.Name == "make") || (kind == allocNew && id.Name == "new") {
						found = true
					}
				}
			}
		case allocCompositeLit:
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
				if _, ok := u.X.(*ast.CompositeLit); ok {
					found = true
				}
			}
		case allocFuncLit:
			if _, ok := n.(*ast.FuncLit); ok {
				found = true
			}
		}
		return !found
	})
	return found
}
