// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver surface: Analyzer, Pass and
// Diagnostic carry the same shapes and semantics as their x/tools
// namesakes, so the mcdla analyzers (nondeterminism, maporder, ctxflow,
// exhaustive, floatguard) are written exactly as go/analysis passes and
// could be rehosted on the real framework by swapping one import.
//
// The package exists because this repository deliberately has no external
// dependencies: the simulator's invariants — byte-identical reports at any
// parallelism, no wall-clock in store records, cancellation threaded
// end-to-end, Inf/NaN-free hot-path math, exhaustive enum handling — are
// enforced by cmd/mcdla-lint, and the checker must build from the standard
// library alone. See doc.go of each analyzer for the invariant it encodes
// and ARCHITECTURE.md ("Invariants enforced by static analysis") for the
// map from analyzer to originating PR.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis pass: a named, documented function
// that inspects a type-checked package and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -<name>=false driver
	// flags, and //mcdlalint:allow directives. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then the invariant it enforces and the escape hatches.
	Doc string

	// Run applies the analyzer to a package and reports diagnostics
	// through pass.Report. The result value is unused by this driver but
	// kept for x/tools signature parity.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer run with a single type-checked package and
// the sink for its diagnostics. Fields mirror x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns filtering
	// (//mcdlalint:allow directives) and ordering.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
