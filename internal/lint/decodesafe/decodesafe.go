// Package decodesafe keeps the wire-decode packages panic-free. The
// fuzz targets of PR 2 (FuzzGraphParse, FuzzPlanDecode,
// FuzzVCBCRoundTrip, FuzzAdjListDecode) hardened these decoders to
// return errors on arbitrary bytes; a panic reintroduced during a later
// refactor would turn a corrupt frame into a worker crash — and fuzzing
// only catches it after the fact, on the inputs it happens to reach.
// This analyzer forbids the construct up front.
//
// Two sanctioned forms: Must* constructors (panicking on programmer
// error over static inputs is their documented contract), and an
// explicit //benulint:panicok <reason> for invariants that are
// unreachable from wire data.
package decodesafe

import (
	"go/ast"
	"go/types"
	"strings"

	"benu/internal/lint/analysis"
)

// Paths scopes the analyzer: import-path suffixes of the packages that
// parse or decode externally supplied bytes.
var Paths = []string{
	"internal/varint",
	"internal/vcbc",
	"internal/plan",
	"internal/graph",
	"internal/csr",
	"internal/cluster/sched/journal",
	"internal/kv",
}

// Analyzer is the decode-safety check.
var Analyzer = &analysis.Analyzer{
	Name: "decodesafe",
	Doc: "forbids panic in the wire-decode packages (varint, vcbc, plan, graph, csr, journal, kv): " +
		"decoders return errors, they do not crash workers on corrupt frames; Must* constructors " +
		"are exempt, other sites need //benulint:panicok",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.InScope(pass.Pkg.Path(), Paths) {
		return nil, nil
	}
	for _, file := range pass.Files {
		var funcStack []string
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			switch n := n.(type) {
			case *ast.FuncDecl:
				funcStack = append(funcStack, n.Name.Name)
				checkBody(pass, n.Body, funcStack)
				funcStack = funcStack[:len(funcStack)-1]
				return false // checkBody walked it
			}
			return true
		})
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, funcStack []string) {
	if body == nil {
		return
	}
	name := funcStack[len(funcStack)-1]
	if strings.HasPrefix(name, "Must") {
		return // Must* constructors panic by contract
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if pass.Suppressed(call.Pos(), "panicok") {
			return true
		}
		pass.Reportf(call.Pos(), "panic in wire-decode package %s: decoders must return errors, not crash "+
			"workers on corrupt input (the fuzz targets assume panic-freedom); rename the function Must* "+
			"if it is a static-input constructor, or justify with //benulint:panicok <reason>", pass.Pkg.Name())
		return true
	})
}
