package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared lock-region engine: a syntactic,
// branch-merging walk over a function body that tracks which
// sync.Mutex/RWMutex locks are held at every node. nolockio,
// lockorder, and snapshotmath are all views over this walk.
//
// The model is deliberately intra-procedural and conservative in the
// direction that produces findings (a lock acquired on one branch is
// considered held after the merge; a branch that returns discards its
// effects). Function literals are analyzed as independent functions
// with an empty held set — a closure does not inherit its creator's
// locks (it may run on another goroutine), and goroutine bodies and
// deferred calls are likewise excluded from the held region.
// Intentional violations are annotated with //wrslint:allow.

// lockInfo is one held lock.
type lockInfo struct {
	key    string    // lock identity class, e.g. "Downlink.peersMu"
	pos    token.Pos // acquisition site
	read   bool      // RLock
	sticky bool      // released by defer: held to end of function
}

// lockSet is the ordered multiset of held locks.
type lockSet []lockInfo

func (s lockSet) clone() lockSet { return append(lockSet(nil), s...) }

func (s lockSet) has(key string) bool {
	for _, l := range s {
		if l.key == key {
			return true
		}
	}
	return false
}

// union merges two post-branch lock sets by key (conservative: held on
// either branch counts as held after the merge).
func union(a, b lockSet) lockSet {
	out := a.clone()
	for _, l := range b {
		if !out.has(l.key) {
			out = append(out, l)
		}
	}
	return out
}

// lockWalker drives one function body. Callbacks may be nil.
type lockWalker struct {
	info *types.Info

	// visit fires for every expression node reached in straight-line
	// execution of the function (go/defer bodies and function literals
	// excluded), with the locks held at that point. nonBlocking is set
	// inside the comm clauses of a select that has a default.
	visit func(n ast.Node, held lockSet, nonBlocking bool)

	// acquire fires at each Lock/RLock with the set held just before.
	acquire func(l lockInfo, held lockSet)

	// loopRepeat fires for a lock acquired inside a loop body and not
	// released by the end of that body: the next iteration re-acquires
	// the same lock class while holding it.
	loopRepeat func(l lockInfo)
}

// walkFunc analyzes one function body starting with no locks held.
func (w *lockWalker) walkFunc(body *ast.BlockStmt) {
	w.stmts(body.List, nil)
}

// lockOp classifies a call as a sync lock operation. It matches any
// Lock/RLock/Unlock/RUnlock method declared in package sync, which
// covers sync.Mutex, sync.RWMutex, and promoted embedded mutexes.
func (w *lockWalker) lockOp(call *ast.CallExpr) (op string, key string, ok bool) {
	sel, selOk := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOk {
		return "", "", false
	}
	f, _ := w.info.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	return f.Name(), w.lockKey(sel.X), true
}

// lockKey names the lock class of a mutex expression: "Type.field" for
// a struct-field mutex (the common case — sh.mu, d.peersMu), the
// identifier name for a variable mutex, and "Type.Mutex" for an
// embedded one. Instances are deliberately collapsed to classes: the
// acquisition-order invariants are stated over classes.
func (w *lockWalker) lockKey(x ast.Expr) string {
	x = ast.Unparen(x)
	switch e := x.(type) {
	case *ast.SelectorExpr:
		base := typeName(w.info.TypeOf(e.X))
		if base == "" {
			return e.Sel.Name
		}
		return base + "." + e.Sel.Name
	case *ast.Ident:
		return e.Name
	default:
		if n := typeName(w.info.TypeOf(x)); n != "" {
			return n + ".Mutex"
		}
		return "lock"
	}
}

// stmts walks a statement list, mutating and returning the held set;
// terminated reports whether the list ends in a terminating statement
// (so callers can discard the branch's effects).
func (w *lockWalker) stmts(list []ast.Stmt, held lockSet) (out lockSet, terminated bool) {
	for _, stmt := range list {
		var term bool
		held, term = w.stmt(stmt, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(stmt ast.Stmt, held lockSet) (lockSet, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, key, ok := w.lockOp(call); ok {
				return w.applyLockOp(op, key, call.Pos(), held), false
			}
			if isTerminatingCall(w.info, call) {
				w.exprs(s.X, held, false)
				return held, true
			}
		}
		w.exprs(s.X, held, false)
		return held, false

	case *ast.DeferStmt:
		// defer mu.Unlock() pins the lock as held to function end.
		if op, key, ok := w.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			for i := range held {
				if held[i].key == key {
					held[i].sticky = true
				}
			}
			return held, false
		}
		// The deferred call runs at return, outside this region: visit
		// only the argument expressions, which are evaluated now.
		for _, arg := range s.Call.Args {
			w.exprs(arg, held, false)
		}
		return held, false

	case *ast.GoStmt:
		// The spawned goroutine does not hold the caller's locks; its
		// body (a FuncLit or named function) is analyzed on its own.
		for _, arg := range s.Call.Args {
			w.exprs(arg, held, false)
		}
		return held, false

	case *ast.BlockStmt:
		// A lexical block does not bound a lock region.
		return w.stmts(s.List, held)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.exprs(s.Cond, held, false)
		thenHeld, thenTerm := w.stmts(s.Body.List, held.clone())
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = w.stmt(s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return union(thenHeld, elseHeld), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.exprs(s.Cond, held, false)
		}
		bodyHeld, _ := w.stmts(s.Body.List, held.clone())
		if s.Post != nil {
			w.stmt(s.Post, bodyHeld)
		}
		w.noteLoopLocks(held, bodyHeld)
		return union(held, bodyHeld), false

	case *ast.RangeStmt:
		w.exprs(s.X, held, false)
		bodyHeld, _ := w.stmts(s.Body.List, held.clone())
		w.noteLoopLocks(held, bodyHeld)
		return union(held, bodyHeld), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.exprs(s.Tag, held, false)
		}
		return w.caseBodies(s.Body, held), false

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		return w.caseBodies(s.Body, held), false

	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		merged := held
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := held.clone()
			if cc.Comm != nil {
				// The comm op of a select with a default never blocks.
				w.commStmt(cc.Comm, branch, hasDefault)
			}
			if bh, term := w.stmts(cc.Body, branch); !term {
				merged = union(merged, bh)
			}
		}
		return merged, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.exprs(r, held, false)
		}
		return held, true

	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line list.
		return held, true

	default:
		// Assignments, sends, declarations, inc/dec, empty: no nested
		// statement lists, visit the whole subtree.
		w.exprs(stmt, held, false)
		return held, false
	}
}

// commStmt visits a select comm statement (send or receive-assign)
// with the non-blocking flag.
func (w *lockWalker) commStmt(stmt ast.Stmt, held lockSet, nonBlocking bool) {
	w.exprs(stmt, held, nonBlocking)
}

// caseBodies walks every case clause of a switch body and merges the
// non-terminating branches.
func (w *lockWalker) caseBodies(body *ast.BlockStmt, held lockSet) lockSet {
	merged := held
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.exprs(e, held, false)
		}
		if bh, term := w.stmts(cc.Body, held.clone()); !term {
			merged = union(merged, bh)
		}
	}
	return merged
}

// applyLockOp mutates the held set for one lock/unlock call.
func (w *lockWalker) applyLockOp(op, key string, pos token.Pos, held lockSet) lockSet {
	switch op {
	case "Lock", "RLock":
		l := lockInfo{key: key, pos: pos, read: op == "RLock"}
		if w.acquire != nil {
			w.acquire(l, held)
		}
		return append(held, l)
	default: // Unlock, RUnlock
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key && !held[i].sticky {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		return held
	}
}

// noteLoopLocks reports locks newly acquired in a loop body and still
// held at its end: the next iteration re-acquires the class while
// holding it (the multi-shard Do pattern), which needs a global order.
func (w *lockWalker) noteLoopLocks(before, after lockSet) {
	if w.loopRepeat == nil {
		return
	}
	for _, l := range after {
		if !before.has(l.key) {
			w.loopRepeat(l)
		}
	}
}

// exprs visits an expression (or simple-statement) subtree, skipping
// function literal bodies — those are analyzed as independent roots.
func (w *lockWalker) exprs(n ast.Node, held lockSet, nonBlocking bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if node != nil && w.visit != nil {
			w.visit(node, held, nonBlocking)
		}
		return true
	})
}

// isTerminatingCall reports calls that never return: panic and
// os.Exit-shaped terminators.
func isTerminatingCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		if f != nil && f.Name() == "Exit" && funcPkgPath(f) == "os" {
			return true
		}
	}
	return false
}

// funcBody is one analysis root: a declared function/method or a
// function literal, walked with an empty initial held set.
type funcBody struct {
	decl *ast.FuncDecl // nil for function literals
	lit  *ast.FuncLit  // nil for declared functions
	body *ast.BlockStmt
}

// funcBodies enumerates every analysis root in the unit's non-test
// files: all declared functions and all function literals (wherever
// they appear — each literal is its own root exactly once).
func funcBodies(pass *Pass) []funcBody {
	var roots []funcBody
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				roots = append(roots, funcBody{decl: fd, body: fd.Body})
			}
		}
		// Every function literal in the file — inside function bodies,
		// package-level var initializers, anywhere — is its own root.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				roots = append(roots, funcBody{lit: lit, body: lit.Body})
			}
			return true
		})
	}
	return roots
}
