package analysis

import (
	"go/ast"
	"strings"
)

// NonTestFiles returns the pass's files excluding _test.go files. The
// invariants the analyzers enforce govern product code; tests are the
// probes and may freely use fixed-seed randomness, wall-clock assertions
// or partial switches. The mcdla-lint driver never loads test files, but
// x/tools drivers, which this package mirrors, do — every analyzer walks
// NonTestFiles so its verdict does not depend on the driver.
func NonTestFiles(pass *Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// WithStack walks every node of every file, handing fn the node plus the
// stack of enclosing nodes (outermost first, not including n itself).
// Returning false prunes the subtree, mirroring ast.Inspect.
func WithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// EnclosingFunc returns the innermost function declaration or literal on
// the stack, or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
