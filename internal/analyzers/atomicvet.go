package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// plainUnderMuDirective documents a struct field that is deliberately
// plain (not atomic) because a named mutex of the same struct guards
// every access:
//
//	pkParks uint64 //javelin:plain-under-mu mu
//
// atomicvet verifies the claim: every access to the field must occur
// with the named mutex held on every path (flow-sensitive, defer- and
// *Locked-convention-aware). The directive is how the exec runtime's
// park-path counters stay plain — bumped under the lock the park path
// already holds, so metering costs it no atomic RMW — without giving up
// machine checking.
const plainUnderMuDirective = "//javelin:plain-under-mu"

// AtomicVet checks that every struct field is accessed under exactly
// one synchronization discipline:
//
//   - A field touched through the sync/atomic function API anywhere
//     (atomic.LoadUint64(&s.f), ...) must never be read or written
//     plainly elsewhere — one plain access beside an atomic one is a
//     data race the memory model does not excuse.
//   - A field of an atomic type (atomic.Int64, atomic.Pointer[T], ...)
//     must only be used through its methods or by address; copying it
//     or touching it any other way defeats the atomicity.
//   - A field annotated //javelin:plain-under-mu <mu> must only be
//     accessed while <mu> (a sync.Mutex/RWMutex field of the same
//     struct, on the same receiver) is held on every path, and must
//     not also be accessed atomically — the directive claims a
//     mutex discipline, not a mixed one.
//
// Scope is the declaring package (javelin keeps such fields
// unexported). Struct construction through composite literals is
// exempt — the object is not shared yet. Function literals are
// analyzed with an unknown entry lock context, so guarded accesses
// inside closures must lock explicitly or be hoisted.
var AtomicVet = &Analyzer{
	Name: "atomicvet",
	Doc:  "no mixed atomic/plain access to fields; //javelin:plain-under-mu claims verified flow-sensitively",
	Run:  runAtomicVet,
}

// guardInfo is one parsed plain-under-mu directive.
type guardInfo struct {
	muName string
	pos    token.Pos
}

func runAtomicVet(pass *Pass) error {
	guarded := collectPlainUnderMu(pass)
	atomicAPI, sanctioned := collectAtomicAPIFields(pass)

	// Mixed discipline: annotated plain-under-mu but also touched via
	// sync/atomic. Reported once, on the directive.
	for v, g := range guarded {
		if apos, ok := atomicAPI[v]; ok {
			p := pass.Fset.Position(apos)
			pass.Report(g.pos, "field %s is %s but is also accessed via sync/atomic at %s:%d: one discipline, not both",
				v.Name(), plainUnderMuDirective, p.Filename, p.Line)
		}
	}

	checkAtomicTypedFieldUses(pass)

	// Flow-sensitive pass: plain accesses to atomic-API fields, and
	// the held-mutex proof for every guarded-field access.
	walkFn := func(body *ast.BlockStmt, entry *lockState) {
		w := &lockWalker{pass: pass}
		w.hooks = lockHooks{
			access: func(n ast.Node, st *lockState) {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return
				}
				v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				if g, ok := guarded[v]; ok {
					base := types.ExprString(sel.X)
					if !st.holds(base + "." + g.muName) {
						pass.Report(sel.Pos(), "plain access to %s.%s requires holding %s.%s on every path (%s)",
							base, v.Name(), base, g.muName, plainUnderMuDirective)
					}
					return
				}
				if apos, ok := atomicAPI[v]; ok && !sanctioned[sel] {
					p := pass.Fset.Position(apos)
					pass.Report(sel.Pos(), "field %s is accessed via sync/atomic (at %s:%d); this plain access is a data race",
						v.Name(), p.Filename, p.Line)
				}
			},
		}
		walkBody(w, body, entry)
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkFn(fn.Body, entryLockState(pass.Info, fn))
				}
			case *ast.FuncLit:
				walkFn(fn.Body, newLockState())
			}
			return true
		})
	}
	return nil
}

// collectPlainUnderMu parses the plain-under-mu directives off struct
// field comments, validating that the named guard exists in the same
// struct and is a mutex.
func collectPlainUnderMu(pass *Pass) map[*types.Var]guardInfo {
	guarded := map[*types.Var]guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				muName, dpos, ok := fieldDirective(field)
				if !ok {
					continue
				}
				if muName == "" {
					pass.Report(dpos, "%s directive missing the guarding mutex field name", plainUnderMuDirective)
					continue
				}
				if !structHasMutexField(pass, st, muName) {
					pass.Report(dpos, "%s names %q, which is not a sync.Mutex/RWMutex field of this struct",
						plainUnderMuDirective, muName)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guarded[v] = guardInfo{muName: muName, pos: dpos}
					}
				}
			}
			return true
		})
	}
	return guarded
}

// fieldDirective scans a struct field's doc and line comments for the
// plain-under-mu directive, returning the named mutex (may be empty
// when malformed) and the directive position.
func fieldDirective(field *ast.Field) (muName string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, plainUnderMuDirective)
			if !found {
				continue
			}
			return strings.TrimSpace(rest), c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

func structHasMutexField(pass *Pass, st *ast.StructType, muName string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != muName {
				continue
			}
			if v, ok := pass.Info.Defs[name].(*types.Var); ok {
				return isSyncMutexType(v.Type())
			}
		}
	}
	return false
}

// collectAtomicAPIFields finds every struct field whose address is
// passed to a sync/atomic function anywhere in the package. Those call
// sites themselves are sanctioned; any other selector reaching the
// field is a plain access.
func collectAtomicAPIFields(pass *Pass) (map[*types.Var]token.Pos, map[*ast.SelectorExpr]bool) {
	fields := map[*types.Var]token.Pos{}
	sanctioned := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !v.IsField() {
					continue
				}
				if _, seen := fields[v]; !seen {
					fields[v] = call.Pos()
				}
				sanctioned[sel] = true
			}
			return true
		})
	}
	return fields, sanctioned
}

// isSyncAtomicCall reports whether call is atomicpkg.Fn(...) for the
// sync/atomic package (any import alias).
func isSyncAtomicCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// checkAtomicTypedFieldUses enforces the method-only rule for fields
// of sync/atomic types: a selector reaching such a field must be the
// receiver of a further selection (x.f.Load()) or have its address
// taken; anything else (assignment either way, argument passing,
// comparison) copies or bypasses the atomic value.
func checkAtomicTypedFieldUses(pass *Pass) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
			if !ok || !v.IsField() || !isAtomicType(v.Type()) {
				return true
			}
			if len(stack) >= 2 {
				switch p := stack[len(stack)-2].(type) {
				case *ast.SelectorExpr:
					if p.X == sel {
						return true // x.f.Load()
					}
				case *ast.UnaryExpr:
					if p.Op == token.AND && p.X == sel {
						return true // &x.f passed as *atomic.T
					}
				}
			}
			pass.Report(sel.Pos(), "atomic-typed field %s used without its atomic API (copying or plain access defeats atomicity)",
				v.Name())
			return true
		})
	}
}

func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
