package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DetRand guards the determinism substrate of the protocol packages.
// The bit-identical pinning suites (equivalence_test.go, the
// cross-runtime exactness matrices) and reproducible experiments all
// assume that protocol state evolves as a pure function of the input
// stream and the injected xrand split streams. Three things silently
// break that:
//
//   - math/rand (v1 or v2): ambient, unseeded or globally seeded
//     randomness that does not flow through the pinned xrand split
//     order;
//   - time.Now/Since/Until: wall-clock reads that make state depend
//     on scheduling;
//   - ranging over a map: Go randomizes map iteration order per run,
//     so any map traversal that feeds protocol state, message order,
//     or query output is a nondeterminism leak. Order-insensitive
//     traversals (results sorted afterwards, pure counting) are
//     annotated with //wrslint:allow detrand and a justification.
//
// The analyzer applies only to the deterministic packages listed in
// detrandPkgs; transport is inherently timing-dependent and is exempt.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbids math/rand, wall-clock reads, and map-order iteration in the deterministic protocol packages",
	Run:  runDetRand,
}

// detrandPkgs are the packages whose state evolution must be a pure
// function of (stream, xrand splits). The testdata entry lets the
// analyzer's own fixtures trigger it.
var detrandPkgs = []string{
	"wrs/internal/core",
	"wrs/internal/window",
	"wrs/internal/fabric",
	"wrs/internal/wire",
	"wrs/internal/xrand",
	// The chaos scenario engine's whole contract is seed-reproducible
	// runs; its wall-clock counterpart lives in workload/saturate,
	// which is deliberately NOT listed.
	"wrs/internal/workload",
	// The deterministic driver the engine delivers through (its
	// goroutine runtime reads no clock or map order either).
	"wrs/internal/netsim",
	// The experiment suite renders the reproduction tables.
	"wrs/internal/bench",
}

func detrandApplies(path string) bool {
	for _, p := range detrandPkgs {
		if path == p {
			return true
		}
	}
	return strings.Contains(path, "lint/testdata/src/detrand")
}

func runDetRand(pass *Pass) {
	if !detrandApplies(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in a deterministic protocol package: all randomness flows through the injected xrand split streams (bit-identical pinning)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, e)
				if fn != nil && funcPkgPath(fn) == "time" {
					switch fn.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(e.Pos(), "time.%s in a deterministic protocol package: protocol state must not depend on the wall clock", fn.Name())
					}
				}
			case *ast.RangeStmt:
				t := pass.Info.TypeOf(e.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(e.For, "map iteration order is randomized per run: traverse protocol state in a deterministic order (sort keys first) or annotate an order-insensitive traversal")
				}
			}
			return true
		})
	}
}
