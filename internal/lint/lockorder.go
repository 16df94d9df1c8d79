package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder extracts the package's lock acquisition graph and rejects
// orderings that can deadlock.
//
// Nodes are lock classes ("Downlink.peersMu",
// "shardState.mu"); an edge A→B is recorded when B is acquired while A
// is held — directly, or through a static call to a same-package
// function that (transitively) acquires B. Three rules:
//
//  1. The sanctioned transport order (DESIGN.md §9.3): a shard ingest
//     mutex may be held while taking the link layer's registry mutex
//     (Downlink.peersMu) for broadcast fan-out; the registry mutex must
//     NEVER be held while taking a shard mutex. The reverse edge is
//     rejected wherever it appears.
//  2. Any cycle in the acquisition graph is rejected — two functions
//     disagreeing about order is a deadlock waiting for load.
//  3. A lock acquired in a loop body and still held at the body's end
//     re-acquires its own class while holding it (the multi-shard
//     Do pattern); that needs a documented global order — annotate
//     with //wrslint:allow lockorder naming the order.
//
// Limits (documented in docs/LINTS.md): dynamic calls through
// interfaces or function values contribute no edges, and a closure
// does not inherit its creator's held set.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "rejects lock acquisition orders that invert shardMu→peersMu or form a cycle",
	Run:  runLockOrder,
}

// forbiddenOrders are edges rejected outright even without a visible
// cycle: acquiring `to` while holding a lock whose class field is
// `fromField`. The one entry encodes the transport invariant; the
// table grows with the design.
var forbiddenOrders = []struct {
	fromField string // last component of the held lock's class
	to        string // acquired lock class
	rule      string
}{
	{"peersMu", "shardState.mu", "the link layer's registry mutex peersMu is never held while taking a shard ingest mutex (DESIGN.md §9.3)"},
}

// lockEdge is one A-held-while-acquiring-B observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) {
	// Map declared functions to their bodies for the call closure.
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, root := range funcBodies(pass) {
		if root.decl == nil {
			continue
		}
		if f, ok := pass.Info.Defs[root.decl.Name].(*types.Func); ok {
			bodies[f] = root.body
		}
	}

	type funcFacts struct {
		acquires map[string]bool // lock classes acquired directly
		calls    []*types.Func   // same-package declared callees
	}
	facts := map[*ast.BlockStmt]*funcFacts{}
	var edges []lockEdge
	type heldCall struct {
		held   lockSet
		callee *types.Func
		pos    token.Pos
	}
	var heldCalls []heldCall

	for _, root := range funcBodies(pass) {
		ff := &funcFacts{acquires: map[string]bool{}}
		facts[root.body] = ff
		w := &lockWalker{info: pass.Info}
		w.acquire = func(l lockInfo, held lockSet) {
			ff.acquires[l.key] = true
			for _, h := range held {
				if h.key != l.key {
					edges = append(edges, lockEdge{from: h.key, to: l.key, pos: l.pos})
				}
			}
		}
		w.loopRepeat = func(l lockInfo) {
			pass.Reportf(l.pos, "lock %s is acquired in a loop while the previous iteration's %s may still be held; concurrent callers deadlock without a global acquisition order", l.key, l.key)
		}
		w.visit = func(n ast.Node, held lockSet, _ bool) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			f := calleeFunc(pass.Info, call)
			if f == nil || f.Pkg() != pass.Pkg {
				return
			}
			ff.calls = append(ff.calls, f)
			if len(held) > 0 {
				heldCalls = append(heldCalls, heldCall{held: held.clone(), callee: f, pos: call.Pos()})
			}
		}
		w.walkFunc(root.body)
	}

	// mayAcquire closure over same-package static calls, to a fixpoint.
	mayAcquire := func(f *types.Func) map[string]bool {
		if b := bodies[f]; b != nil {
			return facts[b].acquires
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range facts {
			for _, callee := range ff.calls {
				for key := range mayAcquire(callee) {
					if !ff.acquires[key] {
						ff.acquires[key] = true
						changed = true
					}
				}
			}
		}
	}

	// Calls made while holding locks contribute the callee's closure.
	for _, hc := range heldCalls {
		for key := range mayAcquire(hc.callee) {
			for _, h := range hc.held {
				if h.key != key {
					edges = append(edges, lockEdge{from: h.key, to: key, pos: hc.pos})
				}
			}
		}
	}

	// Dedup edges by (from, to), keeping the earliest site.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.pos < b.pos
	})
	uniq := edges[:0]
	for _, e := range edges {
		if len(uniq) > 0 && uniq[len(uniq)-1].from == e.from && uniq[len(uniq)-1].to == e.to {
			continue
		}
		uniq = append(uniq, e)
	}
	edges = uniq

	// Rule 1: forbidden orders.
	for _, e := range edges {
		for _, f := range forbiddenOrders {
			if lastComponent(e.from) == f.fromField && e.to == f.to {
				pass.Reportf(e.pos, "acquiring %s while holding %s inverts the sanctioned lock order: %s", e.to, e.from, f.rule)
			}
		}
	}

	// Rule 2: cycles. For each edge a→b, a path b⇝a closes a cycle.
	next := map[string][]string{}
	for _, e := range edges {
		next[e.from] = append(next[e.from], e.to)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range next[n] {
				if m == to {
					return true
				}
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	for _, e := range edges {
		if reaches(e.to, e.from) {
			pass.Reportf(e.pos, "acquiring %s while holding %s closes a lock-order cycle (%s is also acquired while %s is held somewhere in this package)", e.to, e.from, e.from, e.to)
		}
	}
}

func lastComponent(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}
