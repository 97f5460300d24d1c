package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PinPair checks that the epoch-pinning resource pairs of
// internal/core and the versioned-matrix layer are balanced on every
// return path:
//
//	c := e.AcquireContext()   must be released by e.ReleaseContext(c)
//	ep := c.Pin()             must be released by c.Unpin(ep)
//	                          (epoch.Cell and VersionedMatrix receivers)
//
// either via defer or by an explicit call before each return
// (including error-return paths). A leaked acquire keeps its pinned
// factor-value epoch alive forever: the retired buffer can never
// recycle and a refactorize-heavy steady state grows without bound.
//
// The check is flow-sensitive over the function's statement structure
// (the shared branch-merge walker in flow.go): branches are analyzed
// independently and merged (a handle released in only one arm stays
// open), loops account for the zero-iteration path, and defers cover
// every return after the defer statement. A close inside a defer'd
// function literal counts only when it executes on every path through
// the literal — an early return before the close leaves the handle
// uncovered. Ownership transfers are out of scope by design: an
// acquire whose result is stored in a struct field, returned, or
// passed to another function is not tracked (the Applier pattern —
// release happens in another method), and releasing a context received
// as a parameter is never required. Function literals are analyzed as
// independent bodies.
var PinPair = &Analyzer{
	Name: "pinpair",
	Doc:  "AcquireContext/ReleaseContext and epoch Pin/Unpin paired on every return path",
	Run:  runPinPair,
}

// pairSpec describes one open/close resource pair: the open call
// returns a handle, tracked through the assigned variable and closed
// by passing it back as an argument.
type pairSpec struct {
	close     string
	recvTypes map[string]bool // named receiver types the pair is defined on
	verb      string          // past participle for diagnostics ("released", "unpinned")
}

// pinPairs maps open-call method names to their pair spec.
var pinPairs = map[string]pairSpec{
	"AcquireContext": {close: "ReleaseContext", recvTypes: recvSet("Engine"), verb: "released"},
	"Pin":            {close: "Unpin", recvTypes: recvSet("Cell", "VersionedMatrix"), verb: "unpinned"},
}

var pinCloses = map[string]string{
	"ReleaseContext": "AcquireContext",
	"Unpin":          "Pin",
}

func recvSet(names ...string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

func runPinPair(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var name string
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body, name = fn.Body, fn.Name.Name
			case *ast.FuncLit:
				body, name = fn.Body, "func literal"
			default:
				return true
			}
			if body == nil {
				return true
			}
			// The pair implementations themselves (methods named like
			// the open/close calls) manage struct-field state, not
			// local handles; skip them.
			if _, isOpen := pinPairs[name]; isOpen {
				return true
			}
			if _, isClose := pinCloses[name]; isClose {
				return true
			}
			w := &pinWalker{pass: pass}
			walkBody(w, body, newPinState())
			return true // descend: nested FuncLits analyzed independently
		})
	}
	return nil
}

// pinHandle is one open resource being tracked through the flow walk.
type pinHandle struct {
	open     string
	pos      token.Pos
	deferred bool // a defer closes it on every path from here on
}

type pinState struct {
	handles map[*types.Var]*pinHandle // keyed by the handle variable
}

func newPinState() *pinState { return &pinState{handles: map[*types.Var]*pinHandle{}} }

func (s *pinState) cloneState() *pinState {
	c := newPinState()
	for k, h := range s.handles {
		hc := *h
		c.handles[k] = &hc
	}
	return c
}

// mergePinStates combines the exit states of two branches: a handle
// open on either path stays open, and is defer-covered only if covered
// on both.
func mergePinStates(a, b *pinState) *pinState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	m := newPinState()
	for k, h := range a.handles {
		hc := *h
		if o, ok := b.handles[k]; ok {
			hc.deferred = hc.deferred && o.deferred
		}
		m.handles[k] = &hc
	}
	for k, h := range b.handles {
		if _, ok := m.handles[k]; !ok {
			hc := *h
			m.handles[k] = &hc
		}
	}
	return m
}

// pinWalker implements flowAnalysis over pinState.
type pinWalker struct {
	pass *Pass
}

func asPinState(st any) *pinState {
	if st == nil {
		return nil
	}
	return st.(*pinState)
}

func (w *pinWalker) clone(st any) any { return asPinState(st).cloneState() }

func (w *pinWalker) merge(a, b any) any {
	m := mergePinStates(asPinState(a), asPinState(b))
	if m == nil {
		return nil
	}
	return m
}

func (w *pinWalker) expr(e ast.Expr, st any) {}

func (w *pinWalker) ret(st any, pos token.Pos) { w.checkReturn(asPinState(st), pos) }

func (w *pinWalker) stmt(s ast.Stmt, stAny any) any {
	st := asPinState(stAny)
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				w.maybeOpen(vs.Names[0], vs.Values[0], st)
			}
		}
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return st
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			return nil // panicking path: defers run, not checked here
		}
		if name := w.pairCall(call); name != "" {
			if _, isOpen := pinPairs[name]; isOpen {
				w.pass.Report(call.Pos(), "result of %s discarded: the acquired handle (and its pinned epoch) leaks", name)
				return st
			}
			w.close(call, st, false)
		}
	case *ast.DeferStmt:
		w.deferStmt(s, st)
	}
	// GoStmt: a goroutine body runs asynchronously — opens/closes
	// inside it are not part of this path (the literal, if any, is
	// analyzed as an independent body by the outer inspection). All
	// other simple statements leave the state unchanged.
	return st
}

// assign handles handle-returning opens (`c := e.AcquireContext()`,
// `ep := vm.Pin()`) and ignores other assignments; an acquire stored
// into anything but a plain local identifier is an ownership transfer
// and deliberately untracked.
func (w *pinWalker) assign(s *ast.AssignStmt, st *pinState) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		id, ok := s.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		w.maybeOpen(id, rhs, st)
	}
}

func (w *pinWalker) maybeOpen(id *ast.Ident, rhs ast.Expr, st *pinState) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return
	}
	name := w.pairCall(call)
	if _, isOpen := pinPairs[name]; !isOpen {
		return
	}
	if id.Name == "_" {
		w.pass.Report(call.Pos(), "result of %s assigned to _: the acquired handle (and its pinned epoch) leaks", name)
		return
	}
	obj := w.pass.Info.Defs[id]
	if obj == nil {
		obj = w.pass.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	st.handles[v] = &pinHandle{open: name, pos: call.Pos()}
}

// closeKey resolves the handle variable a close call targets
// (ReleaseContext(c), Unpin(ep)); nil when the call is not a close or
// does not resolve to a trackable handle.
func (w *pinWalker) closeKey(call *ast.CallExpr) *types.Var {
	if _, isClose := pinCloses[w.pairCall(call)]; !isClose {
		return nil
	}
	if len(call.Args) != 1 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := w.pass.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return v
}

// close handles ReleaseContext(c) / vm.Unpin(ep); closing an
// untracked handle (e.g. a context received as a parameter) is fine.
func (w *pinWalker) close(call *ast.CallExpr, st *pinState, isDefer bool) {
	key := w.closeKey(call)
	h, ok := st.handles[key]
	if !ok {
		return
	}
	if isDefer {
		h.deferred = true
		return
	}
	delete(st.handles, key)
}

func (w *pinWalker) deferStmt(s *ast.DeferStmt, st *pinState) {
	if _, isClose := pinCloses[w.pairCall(s.Call)]; isClose {
		w.close(s.Call, st, true)
		return
	}
	// defer func() { ... e.ReleaseContext(c) ... }(): a close inside
	// the literal covers a handle only when it executes on every path
	// through the literal body — a close behind an early return or in
	// only one branch arm does not.
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		for key := range w.allPathsCloses(lit.Body) {
			if h, ok := st.handles[key]; ok {
				h.deferred = true
			}
		}
	}
}

// allPathsCloses returns the handles whose close calls execute on
// every exit path of body (the body of a defer'd function literal).
func (w *pinWalker) allPathsCloses(body *ast.BlockStmt) map[*types.Var]bool {
	c := &closeCollector{w: w}
	walkBody(c, body, map[*types.Var]bool{})
	if c.exits == nil {
		return map[*types.Var]bool{}
	}
	return c.exits
}

// closeCollector is a flowAnalysis whose state is the set of handles
// closed so far on the current path; exits accumulates the
// intersection over every exit path.
type closeCollector struct {
	w     *pinWalker
	exits map[*types.Var]bool // nil until the first exit is seen
}

func asCloseSet(st any) map[*types.Var]bool {
	if st == nil {
		return nil
	}
	return st.(map[*types.Var]bool)
}

func (c *closeCollector) clone(st any) any {
	m := map[*types.Var]bool{}
	for k := range asCloseSet(st) {
		m[k] = true
	}
	return m
}

func (c *closeCollector) merge(a, b any) any {
	sa, sb := asCloseSet(a), asCloseSet(b)
	if sa == nil {
		if sb == nil {
			return nil
		}
		return sb
	}
	if sb == nil {
		return sa
	}
	m := map[*types.Var]bool{}
	for k := range sa {
		if sb[k] {
			m[k] = true
		}
	}
	return m
}

func (c *closeCollector) expr(e ast.Expr, st any) {}

func (c *closeCollector) stmt(s ast.Stmt, st any) any {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return st
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return st
	}
	if key := c.w.closeKey(call); key != nil {
		asCloseSet(st)[key] = true
	}
	return st
}

func (c *closeCollector) ret(st any, pos token.Pos) {
	set := asCloseSet(st)
	if c.exits == nil {
		c.exits = map[*types.Var]bool{}
		for k := range set {
			c.exits[k] = true
		}
		return
	}
	for k := range c.exits {
		if !set[k] {
			delete(c.exits, k)
		}
	}
}

func (w *pinWalker) checkReturn(st *pinState, pos token.Pos) {
	for _, h := range st.handles {
		if h.deferred {
			continue
		}
		p := w.pass.Fset.Position(h.pos)
		spec := pinPairs[h.open]
		w.pass.Report(pos, "%s at %s:%d is not %s on this return path (call %s before returning, or defer it)",
			h.open, p.Filename, p.Line, spec.verb, spec.close)
	}
}

// pairCall classifies a call as one of the tracked pair methods,
// returning its name ("" for any other call), verifying the
// receiver's named type when type information resolves (Engine for
// Acquire/Release, Cell/VersionedMatrix for Pin/Unpin). A same-named
// method on an unrelated type is not tracked.
func (w *pinWalker) pairCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	n := sel.Sel.Name
	var wantRecv map[string]bool
	if p, ok := pinPairs[n]; ok {
		wantRecv = p.recvTypes
	} else if open, ok := pinCloses[n]; ok {
		wantRecv = pinPairs[open].recvTypes
	} else {
		return ""
	}
	s, ok := w.pass.Info.Selections[sel]
	if !ok {
		return "" // package-qualified call or unresolved: not a method
	}
	if !wantRecv[namedTypeName(s.Recv())] {
		return ""
	}
	return n
}

func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}
