package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockVet checks the mutex discipline the execution runtime's
// correctness rests on, two ways:
//
// Pairing: every mu.Lock() must reach a matching mu.Unlock() on every
// return path (defer-aware, flow-sensitive over the shared branch-merge
// walker) — a path that returns with a mutex held wedges every future
// worker that touches it. Re-locking a mutex already held on the path
// is reported as a self-deadlock, and unlocking a mutex that is not
// held (including one held only by the *Locked naming contract — the
// caller still thinks it owns it) is reported too.
//
// Ordering: a static lock-acquisition-order graph whose nodes are
// mutex classes ("Runtime.mu", "job.mu", ...: the declaring type and
// field) and whose edges mean "B acquired while A held" — directly, or
// through a statically resolved call whose transitive may-acquire set
// (a fixpoint over the package's call graph, *Locked helpers included)
// contains B. A cycle in that graph is a potential deadlock schedule
// and fails the build. Same-class edges are not recorded: holding one
// instance's mutex while taking another's of the same class (walking
// a list of jobs, say) is an ordered traversal, not an ordering
// violation this graph can decide.
//
// Calls spawned with go do not contribute (the goroutine does not
// inherit the spawner's locks), and function literals are analyzed as
// independent bodies with an unknown entry lock context.
var LockVet = &Analyzer{
	Name: "lockvet",
	Doc:  "Lock/Unlock paired on every return path; lock-acquisition-order graph acyclic",
	Run:  runLockVet,
}

// lockEdge is one acquired-while-held edge in the order graph,
// remembered at its first occurrence.
type lockEdge struct {
	pos token.Pos
	via string // "" for a direct acquire, callee name for a call edge
}

func runLockVet(pass *Pass) error {
	mw := &lockWalker{pass: pass}
	summaries := buildLockSummaries(pass, mw)

	edges := map[string]map[string]lockEdge{}
	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == "" || to == "" || from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = map[string]lockEdge{}
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = lockEdge{pos: pos, via: via}
		}
	}

	walkFn := func(body *ast.BlockStmt, entry *lockState, topLevel bool, fnName string) {
		w := &lockWalker{pass: pass, topLevel: topLevel}
		w.hooks = lockHooks{
			leak: func(lk *heldLock, pos token.Pos) {
				p := pass.Fset.Position(lk.pos)
				pass.Report(pos, "%s locked at %s:%d is not unlocked on this return path (unlock before returning, or defer it)",
					displayInstance(lk.instance), p.Filename, p.Line)
			},
			doubleLock: func(lk *heldLock, prev *heldLock) {
				p := pass.Fset.Position(prev.pos)
				pass.Report(lk.pos, "%s is already locked on this path (at %s:%d): a second Lock self-deadlocks",
					displayInstance(lk.instance), p.Filename, p.Line)
			},
			badUnlock: func(instance string, pos token.Pos, pre *heldLock) {
				if pre != nil {
					pass.Report(pos, "%s unlocked inside %s, which is called with it held by the *Locked naming contract",
						displayInstance(instance), fnName)
					return
				}
				pass.Report(pos, "%s is unlocked but not locked on this path", displayInstance(instance))
			},
			acquire: func(lk *heldLock, heldBefore []*heldLock) {
				for _, h := range heldBefore {
					addEdge(h.class, lk.class, lk.pos, "")
				}
			},
			call: func(fn *types.Func, held []*heldLock, pos token.Pos) {
				s := summaries[fn]
				if s == nil || len(held) == 0 {
					return
				}
				for _, to := range sortedKeys(s.acquires) {
					for _, h := range held {
						addEdge(h.class, to, pos, fn.Name())
					}
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
					walkFn(fn.Body, entryLockState(pass.Info, fn), true, fn.Name.Name)
				}
			case *ast.FuncLit:
				walkFn(fn.Body, newLockState(), false, "function literal")
			}
			return true
		})
	}

	reportLockCycles(pass, edges)
	return nil
}

func displayInstance(instance string) string {
	if s, ok := strings.CutSuffix(instance, "#r"); ok {
		return s + " (read lock)"
	}
	return instance
}

// lockSummary is one function's flow-insensitive lock behavior: the
// mutex classes it may acquire (transitively, after the fixpoint) and
// its statically resolved callees.
type lockSummary struct {
	acquires map[string]bool
	callees  map[*types.Func]bool
}

// buildLockSummaries computes the transitive may-acquire class set for
// every function in the package: direct Lock/RLock sites (function
// literals included, go statements excluded), closed over the static
// same-package call graph to a fixpoint.
func buildLockSummaries(pass *Pass, mw *lockWalker) map[*types.Func]*lockSummary {
	summaries := map[*types.Func]*lockSummary{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &lockSummary{acquires: map[string]bool{}, callees: map[*types.Func]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					return false // spawned work does not run under our locks
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op, le := mw.mutexOp(call); op == "Lock" || op == "RLock" {
					if c := lockClass(pass.Info, le); c != "" {
						s.acquires[c] = true
					}
					return true
				}
				if fn := staticCallee(pass.Info, call); fn != nil && fn.Pkg() == pass.Pkg {
					s.callees[fn] = true
				}
				return true
			})
			summaries[obj] = s
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range summaries {
			for callee := range s.callees {
				cs := summaries[callee]
				if cs == nil {
					continue
				}
				for c := range cs.acquires {
					if !s.acquires[c] {
						s.acquires[c] = true
						changed = true
					}
				}
			}
		}
	}
	return summaries
}

// reportLockCycles DFS-walks the class graph in deterministic order
// and reports every back edge as an acquisition-order cycle, at the
// position of the edge that closes it.
func reportLockCycles(pass *Pass, edges map[string]map[string]lockEdge) {
	nodes := sortedKeys(edges)
	const (
		white = iota
		gray
		black
	)
	state := map[string]int{}
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		state[n] = gray
		stack = append(stack, n)
		for _, m := range sortedKeys(edges[n]) {
			switch state[m] {
			case gray:
				// Back edge n→m closes a cycle m → ... → n → m.
				i := 0
				for stack[i] != m {
					i++
				}
				path := append(append([]string{}, stack[i:]...), m)
				e := edges[n][m]
				detail := ""
				if e.via != "" {
					detail = " (via call to " + e.via + ")"
				}
				pass.Report(e.pos, "lock acquisition order cycle: %s%s — a concurrent schedule taking these in opposite order deadlocks",
					strings.Join(path, " -> "), detail)
			case white:
				dfs(m)
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = black
	}
	for _, n := range nodes {
		if state[n] == white {
			dfs(n)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
