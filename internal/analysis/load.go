package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader type-checks packages from source with no toolchain artifacts:
// local packages (the module under lint, or a testdata fixture tree) are
// parsed from the directories registered with AddLocal, and everything
// else — the standard library — resolves through go/importer's source
// importer. Cgo is disabled for the load (the pure-Go fallbacks of net,
// os/user, … are what get type-checked), which keeps the load hermetic:
// no compiler, no export data, no network.
type Loader struct {
	Fset *token.FileSet

	local    map[string]string // import path → directory
	fallback types.ImporterFrom
	pkgs     map[string]*Package
	loading  map[string]bool
}

// NewLoader returns a Loader with an empty local set.
func NewLoader() *Loader {
	// The source importer consults build.Default; without this, packages
	// with cgo variants would shell out to `go tool cgo`.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		local:    map[string]string{},
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     map[string]*Package{},
		loading:  map[string]bool{},
	}
}

// AddLocal registers dir as the source directory for import path.
func (l *Loader) AddLocal(path, dir string) { l.local[path] = dir }

// Load parses and type-checks the package at import path. Local packages
// load from their registered directory (skipping _test.go files); all
// other paths fall back to the standard-library source importer. Results
// are memoized, so diamond imports type-check once.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.local[path]
	if !ok {
		return nil, fmt.Errorf("package %q is not a registered local package", path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []string
	for _, n := range names {
		files = append(files, filepath.Join(dir, n))
	}
	return l.LoadFiles(path, files)
}

// LoadFiles parses and type-checks the named files as the package at
// import path and memoizes the result.
func (l *Loader) LoadFiles(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: importerFunc(l.importShim)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, TypesInfo: info}
	l.pkgs[path] = p
	return p, nil
}

// importShim resolves one import during type-checking: local packages
// recurse through Load, anything else goes to the stdlib source importer.
func (l *Loader) importShim(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.local[path]; ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.fallback.ImportFrom(path, "", 0)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// RunAnalyzer applies a to pkg and returns its diagnostics, already
// filtered through the package's //mcdlalint:allow directives and sorted
// by position.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	return applyAllow(pkg.Fset, pkg.Files, a.Name, diags), nil
}
