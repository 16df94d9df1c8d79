package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoLockIO flags network/buffered-writer I/O and blocking channel
// operations reachable while a sync.Mutex or sync.RWMutex is held.
//
// This is the bug class PR 1 fixed by hand: the original transport
// wrote broadcast frames to every site connection while holding the
// client's state mutex, so one slow site stalled every observer and
// the control plane, and the paper's sublinear message bound collapsed
// to O(n) under CPU contention. The repaired design moves every
// conn write off the locked path (per-connection writer goroutines
// draining mailboxes); this analyzer keeps it that way mechanically.
//
// Flagged while a lock is held:
//   - method calls named Write/WriteString/WriteByte/WriteRune/
//     ReadFrom/Flush whose receiver is a net or bufio type (net.Conn
//     implementations, *bufio.Writer, ...);
//   - calls into package wrs/internal/wire with a Write prefix
//     (WriteFrame, WriteMessage — frame writes that block on the conn);
//   - channel sends and receives, except inside a select that has a
//     default clause (those never block).
//
// A mutex that exists to serialize the writes themselves (the dedicated
// writer mutex a role holds over its transport.Uplink) is a sanctioned
// exception: annotate the write with //wrslint:allow nolockio and say
// which mutex guards what.
var NoLockIO = &Analyzer{
	Name: "nolockio",
	Doc:  "flags conn/bufio writes, flushes, and blocking channel ops while a mutex is held",
	Run:  runNoLockIO,
}

func runNoLockIO(pass *Pass) {
	for _, root := range funcBodies(pass) {
		w := &lockWalker{
			info: pass.Info,
			visit: func(n ast.Node, held lockSet, nonBlocking bool) {
				if len(held) == 0 {
					return
				}
				checkLockedIO(pass, n, held, nonBlocking)
			},
		}
		w.walkFunc(root.body)
	}
}

func checkLockedIO(pass *Pass, n ast.Node, held lockSet, nonBlocking bool) {
	lock := held[len(held)-1].key
	switch e := n.(type) {
	case *ast.CallExpr:
		f := calleeFunc(pass.Info, e)
		if f == nil {
			return
		}
		if isConnWriteMethod(pass.Info, e, f) {
			pass.Reportf(e.Pos(), "%s on a %s value while holding %s: conn/bufio I/O must run off the locked path (the PR 1 bug class)",
				f.Name(), ioPkgOf(pass.Info, e, f), lock)
			return
		}
		if strings.HasSuffix(funcPkgPath(f), "internal/wire") && strings.HasPrefix(f.Name(), "Write") {
			pass.Reportf(e.Pos(), "wire.%s while holding %s: frame writes block on the conn and must run off the locked path", f.Name(), lock)
		}
	case *ast.SendStmt:
		if !nonBlocking {
			pass.Reportf(e.Arrow, "channel send while holding %s: a full channel blocks every path into this lock", lock)
		}
	case *ast.UnaryExpr:
		if e.Op.String() == "<-" && !nonBlocking {
			pass.Reportf(e.OpPos, "channel receive while holding %s: an empty channel blocks every path into this lock", lock)
		}
	}
}

// ioWriteMethods are the blocking writer-side methods of net/bufio
// types.
var ioWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "ReadFrom": true, "Flush": true,
}

// isConnWriteMethod reports whether the call is a write-side method on
// a type declared in package net or bufio (concrete *bufio.Writer,
// net.TCPConn, or the net.Conn interface itself).
func isConnWriteMethod(info *types.Info, call *ast.CallExpr, f *types.Func) bool {
	if !ioWriteMethods[f.Name()] {
		return false
	}
	switch ioPkgOf(info, call, f) {
	case "net", "bufio":
		return true
	}
	return false
}

// ioPkgOf names the package owning the method's receiver type: the
// static receiver type's package when named, else the package
// declaring the method (interface methods like net.Conn.Write).
func ioPkgOf(info *types.Info, call *ast.CallExpr, f *types.Func) string {
	if rt := recvType(info, call); rt != nil {
		if p := typePkgPath(rt); p != "" {
			return p
		}
	}
	return funcPkgPath(f)
}
