// Package floatguard hunts the +Inf bug class in the simulator's
// arithmetic hot paths.
//
// The analytic model is a tower of rate divisions — bytes over
// bandwidth, FLOPs over throughput, spans over link counts. A divisor
// that can reach zero turns a latency estimate into +Inf, which then
// propagates through max() trees and Pareto comparisons without ever
// crashing: the classic silent Estimate +Inf bug. Inside the scoped
// packages the analyzer flags every floating-point division whose
// divisor is not provably nonzero:
//
//   - a nonzero constant (or a conversion of one) passes;
//   - max(x, c)/math.Max(x, c) with a nonzero constant argument passes;
//   - an expression the enclosing function compares against zero (or
//     guards with `if divisor == 0 { ... }`-style checks on the exact
//     same expression text) passes;
//   - anything else is a diagnostic.
//
// Divisions that are safe for structural reasons the analyzer cannot see
// (validated config, loop bounds) carry
// //mcdlalint:allow floatguard -- <reason>.
package floatguard

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"github.com/memcentric/mcdla/internal/analysis"
)

// Scope matches the arithmetic hot paths: the per-layer analytic model,
// the event-driven engines, scale-out/collective span math, and the
// derived-metric helpers.
var Scope = regexp.MustCompile(`(^|/)internal/(sim|core|scaleout|collective|vmem|compress|metrics|cost|power)(/|$)`)

var Analyzer = &analysis.Analyzer{
	Name: "floatguard",
	Doc: "require float divisions in sim hot paths to have provably nonzero divisors\n\n" +
		"A divisor must be a nonzero constant, clamped via max(..., nonzero), or guarded\n" +
		"by a zero-comparison on the same expression in the enclosing function. Suppress\n" +
		"a structurally safe division with //mcdlalint:allow floatguard -- <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !Scope.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	analysis.WithStack(analysis.NonTestFiles(pass), func(n ast.Node, stack []ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != token.QUO {
			return true
		}
		if !isFloat(pass, bin.X) && !isFloat(pass, bin.Y) {
			return true
		}
		if provablyNonzero(pass, bin.Y) {
			return true
		}
		if guardedInFunc(pass, stack, bin.Y) {
			return true
		}
		pass.Reportf(bin.Pos(), "float division by %s which is not provably nonzero: clamp with max(..., ε), guard with a zero check, or annotate %s floatguard -- <reason>",
			types.ExprString(bin.Y), analysis.AllowPrefix)
		return true
	})
	return nil, nil
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// provablyNonzero reports whether the divisor is structurally nonzero:
// a nonzero constant, a conversion or unary minus of one, or a
// max/math.Max call with at least one nonzero-constant argument.
func provablyNonzero(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)

	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return !isZeroValue(tv.Value)
	}

	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.SUB {
			return provablyNonzero(pass, e.X)
		}
	case *ast.CallExpr:
		if isConversion(pass, e) && len(e.Args) == 1 {
			return provablyNonzero(pass, e.Args[0])
		}
		if isMaxCall(pass, e) {
			for _, arg := range e.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil && !isZeroValue(tv.Value) &&
					constant.Compare(tv.Value, token.GTR, constant.MakeInt64(0)) {
					return true
				}
			}
		}
	}
	return false
}

func isZeroValue(v constant.Value) bool {
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Compare(v, token.EQL, constant.MakeInt64(0))
	default:
		return false
	}
}

func isConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

// isMaxCall matches the builtin max and math.Max.
func isMaxCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		_, ok := pass.TypesInfo.Uses[fun].(*types.Builtin)
		return ok && fun.Name == "max"
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "math" && obj.Name() == "Max"
	}
	return false
}

// guardedInFunc reports whether the enclosing function contains a
// comparison of the divisor expression (by exact source text, modulo
// numeric conversions) against a constant — the `if bw == 0 { return
// ... }` / `if bw > 0 { x / bw }` guard idiom. Textual matching is
// deliberately simple; a guard on a different spelling of the same
// value does not count and needs an allow directive instead.
func guardedInFunc(pass *analysis.Pass, stack []ast.Node, divisor ast.Expr) bool {
	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return false
	}
	want := exprKey(divisor)
	if want == "" {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return !found
		}
		switch bin.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return !found
		}
		xConst := isConstExpr(pass, bin.X)
		yConst := isConstExpr(pass, bin.Y)
		if xConst == yConst { // need exactly one constant side
			return !found
		}
		varSide := bin.X
		if xConst {
			varSide = bin.Y
		}
		if exprKey(varSide) == want {
			found = true
		}
		return !found
	})
	return found
}

func isConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// exprKey canonicalizes an expression for guard matching: parentheses,
// numeric conversions, and time.Duration's Seconds() accessor (monotone,
// zero iff the duration is zero — so a `d > 0` guard transfers to
// `d.Seconds()`) are stripped, then the source text is the key.
func exprKey(e ast.Expr) string {
	e = ast.Unparen(e)
	for {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			break
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if len(call.Args) != 1 {
				return types.ExprString(e)
			}
			switch fun.Name {
			case "float64", "float32", "int", "int64", "uint64":
				e = ast.Unparen(call.Args[0])
				continue
			}
			return types.ExprString(e)
		case *ast.SelectorExpr:
			if len(call.Args) == 0 && fun.Sel.Name == "Seconds" {
				e = ast.Unparen(fun.X)
				continue
			}
			return types.ExprString(e)
		default:
			return types.ExprString(e)
		}
	}
	return types.ExprString(e)
}
