// Package ctxflow enforces end-to-end context threading.
//
// PR 5 made cancellation a contract: runner.Engine.Run/Fan stop
// scheduling queued jobs once their context dies, so Ctrl-C on the CLI
// and client disconnect on the HTTP service abort whole sweeps — but only
// if every library function between the entrypoint and the engine
// forwards the caller's context instead of minting its own. This
// analyzer makes the contract mechanical with two rules:
//
//  1. context.Background() and context.TODO() are banned outside package
//     main and _test.go files. A library that needs a context must accept
//     one. Deliberate detachment points (a server's shutdown grace
//     period, a background executor's lifecycle root) carry an in-code
//     //mcdlalint:allow ctxflow -- <reason> directive.
//
//  2. A function that takes a context.Context parameter must use it;
//     a named, never-read ctx parameter means some callee below is being
//     handed the wrong context (or none). Intentionally unused contexts
//     (interface compliance) are named _, which documents the intent.
package ctxflow

import (
	"go/ast"
	"go/types"

	"github.com/memcentric/mcdla/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "ban context.Background/TODO outside main and tests; flag unused ctx parameters\n\n" +
		"Library code must accept and forward a context.Context so cancellation reaches\n" +
		"the runner end-to-end. Suppress a deliberate detachment point with\n" +
		"//mcdlalint:allow ctxflow -- <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	analysis.WithStack(analysis.NonTestFiles(pass), func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkFreshContext(pass, n)
		case *ast.FuncDecl:
			checkUnusedCtxParam(pass, n)
		}
		return true
	})
	return nil, nil
}

// checkFreshContext reports context.Background()/TODO() calls.
func checkFreshContext(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return
	}
	if obj.Name() != "Background" && obj.Name() != "TODO" {
		return
	}
	pass.Reportf(call.Pos(), "context.%s() in library code detaches this call tree from cancellation: "+
		"accept and forward the caller's ctx (deliberate roots need %s ctxflow -- <reason>)", obj.Name(), analysis.AllowPrefix)
}

// checkUnusedCtxParam flags a named context.Context parameter that the
// function body never reads.
func checkUnusedCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if !isContextType(pass, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil || usedIn(pass, fd.Body, obj) {
				continue
			}
			pass.Reportf(name.Pos(), "%s receives ctx but never forwards it: thread it to the callees or name it _ to document the intent", fd.Name.Name)
		}
	}
}

func usedIn(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
