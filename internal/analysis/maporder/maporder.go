// Package maporder finds map iterations whose nondeterministic order
// leaks into ordered output.
//
// Go randomizes map iteration order per run. The repo's goldens pin
// stdout byte-for-byte and the store keys results by a canonical job
// hash, so a `range` over a map that appends to a slice, emits report
// rows, or feeds a hash would fork identical runs. The analyzer flags a
// range-over-map whose body
//
//   - appends to a slice,
//   - calls (*report.Table).AddRow (any method named AddRow), or
//   - writes into a hash (a hash.Hash/crypto Write, or an fmt.Fprint*
//     whose writer is one),
//
// unless the loop is the sorted-key extraction idiom itself: the only
// sink is appending the range key to a slice that is later passed to a
// sort.*/slices.Sort* call in the same function.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/memcentric/mcdla/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map whose body appends, emits report rows, or hashes\n\n" +
		"Map iteration order is randomized; output and hashes must come from sorted\n" +
		"keys. The sorted-key extraction idiom (append keys, sort, re-loop) passes.\n" +
		"Suppress a provably order-free case with //mcdlalint:allow maporder -- <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	analysis.WithStack(analysis.NonTestFiles(pass), func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, ok := typeOf(pass, rng.X).Underlying().(*types.Map); !ok {
			return true
		}
		checkMapRange(pass, rng, stack)
		return true
	})
	return nil, nil
}

// sinks collected from a range body.
type sinks struct {
	appends    []appendSink
	rowWrites  []ast.Node // AddRow calls
	hashWrites []ast.Node // hash writes
}

type appendSink struct {
	call   *ast.CallExpr
	target types.Object // the slice object assigned to, nil if not an ident
	// keyOnly is true when the appended element is exactly the range key.
	keyOnly bool
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	s := collectSinks(pass, rng)
	if len(s.appends) == 0 && len(s.rowWrites) == 0 && len(s.hashWrites) == 0 {
		return
	}

	// Sorted-key extraction exemption: every sink is an append of the
	// bare range key into a slice that a later statement of the same
	// function sorts.
	if len(s.rowWrites) == 0 && len(s.hashWrites) == 0 {
		exempt := true
		for _, a := range s.appends {
			if !a.keyOnly || a.target == nil || !sortedAfter(pass, rng, stack, a.target) {
				exempt = false
				break
			}
		}
		if exempt {
			return
		}
	}

	kind := "appends to a slice"
	switch {
	case len(s.rowWrites) > 0:
		kind = "emits report rows"
	case len(s.hashWrites) > 0:
		kind = "writes into a hash"
	}
	pass.Report(analysis.Diagnostic{
		Pos: rng.Pos(),
		Message: fmt.Sprintf("range over map %s %s: iteration order is randomized and leaks into ordered output — extract and sort the keys first",
			types.ExprString(rng.X), kind),
	})
}

func collectSinks(pass *analysis.Pass, rng *ast.RangeStmt) sinks {
	var s sinks
	keyObj := rangeKeyObj(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if isBuiltinAppend(pass, fun) {
				s.appends = append(s.appends, classifyAppend(pass, call, keyObj))
			}
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[fun.Sel]
			switch {
			case fun.Sel.Name == "AddRow":
				s.rowWrites = append(s.rowWrites, call)
			case fun.Sel.Name == "Write" && isHashType(typeOf(pass, fun.X)):
				s.hashWrites = append(s.hashWrites, call)
			case obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" &&
				(obj.Name() == "Fprintf" || obj.Name() == "Fprint" || obj.Name() == "Fprintln"):
				if len(call.Args) > 0 && isHashType(typeOf(pass, call.Args[0])) {
					s.hashWrites = append(s.hashWrites, call)
				}
			}
		}
		return true
	})
	return s
}

// classifyAppend resolves `x = append(x, elems...)`: the target object
// (when x is a plain identifier) and whether the single appended element
// is the bare range key.
func classifyAppend(pass *analysis.Pass, call *ast.CallExpr, keyObj types.Object) appendSink {
	a := appendSink{call: call}
	if len(call.Args) >= 1 {
		if id, ok := call.Args[0].(*ast.Ident); ok {
			a.target = pass.TypesInfo.ObjectOf(id)
		}
	}
	if len(call.Args) == 2 && call.Ellipsis == token.NoPos && keyObj != nil {
		if id, ok := call.Args[1].(*ast.Ident); ok && pass.TypesInfo.Uses[id] == keyObj {
			a.keyOnly = true
		}
	}
	return a
}

func rangeKeyObj(pass *analysis.Pass, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// sortedAfter reports whether target is passed to a sort call in a
// statement of the enclosing function after the range statement.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node, target types.Object) bool {
	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return !found
		}
		path := obj.Pkg().Path()
		if path != "sort" && path != "slices" {
			return !found
		}
		if len(call.Args) == 0 {
			return !found
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[id] == target {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltinAppend(pass *analysis.Pass, id *ast.Ident) bool {
	if id.Name != "append" {
		return false
	}
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isHashType reports whether t is (or points to) a type declared in
// package hash or under crypto/ — the Write targets whose digests must
// not depend on map order.
func isHashType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "hash" || path == "crypto" ||
		len(path) > len("hash/") && path[:len("hash/")] == "hash/" ||
		len(path) > len("crypto/") && path[:len("crypto/")] == "crypto/"
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
