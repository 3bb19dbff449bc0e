package mcdla

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/analysis"
	"github.com/memcentric/mcdla/internal/experiments"
)

// docFiles are the markdown documents whose links CI keeps honest.
var docFiles = []string{"README.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "PAPERS.md"}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks checks every relative link in the repo's documentation:
// the target file must exist, and a #fragment into a markdown file must
// match one of its headings (GitHub anchor rules). External http(s) links
// are not fetched — only their shape is accepted.
func TestMarkdownLinks(t *testing.T) {
	for _, doc := range docFiles {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("documentation file missing: %v", err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"), strings.HasPrefix(target, "mailto:"):
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			if path == "" {
				// Intra-document anchor.
				if !hasAnchor(t, doc, frag) {
					t.Errorf("%s: anchor #%s not found in the same document", doc, frag)
				}
				continue
			}
			path = filepath.FromSlash(path)
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, target, err)
				continue
			}
			if frag != "" && strings.HasSuffix(path, ".md") && !hasAnchor(t, path, frag) {
				t.Errorf("%s: link %q: anchor #%s not found in %s", doc, target, frag, path)
			}
		}
	}
}

// hasAnchor reports whether file has a heading whose GitHub slug is frag.
func hasAnchor(t *testing.T, file, frag string) bool {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimSpace(strings.TrimLeft(line, "#"))
		if githubSlug(heading) == strings.ToLower(frag) {
			return true
		}
	}
	return false
}

// githubSlug approximates GitHub's heading→anchor rule: lowercase, spaces
// to hyphens, everything but letters, digits, hyphens and underscores
// dropped.
func githubSlug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || ('a' <= r && r <= 'z') || ('0' <= r && r <= '9'):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TestDocsMentionEverySubcommand keeps the README cookbook in sync with the
// CLI: every command of the experiments table, plus the CLI's own serve
// and all, must appear in README.md.
func TestDocsMentionEverySubcommand(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	subs := []string{"serve", "all"}
	for _, c := range experiments.Commands() {
		subs = append(subs, c.Name)
	}
	for _, sub := range subs {
		// The cookbook spells every subcommand as an invocation, so only
		// the strict "mcdla <sub>" form counts as documentation.
		if !strings.Contains(string(readme), fmt.Sprintf("mcdla %s", sub)) {
			t.Errorf("README.md does not document subcommand %q (no \"mcdla %s\" invocation)", sub, sub)
		}
	}
}

// TestReadmeQuickstartMatchesExample keeps the README's quickstart output
// honest: its last code block must equal the // Output: of the runnable
// Example in internal/core, which go test checks against the simulator.
func TestReadmeQuickstartMatchesExample(t *testing.T) {
	const src = "internal/core/example_test.go"
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, ex := range doc.Examples(f) {
		if ex.Name == "" {
			want = strings.TrimSpace(ex.Output)
		}
	}
	if want == "" {
		t.Fatalf("%s has no package Example with an // Output: block", src)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Quickstart\n")
	if !ok {
		t.Fatal("README.md has no Quickstart section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	blocks := strings.Split(section, "```")
	if len(blocks) < 3 {
		t.Fatal("README.md Quickstart section has no code block")
	}
	if got := strings.TrimSpace(blocks[len(blocks)-2]); got != want {
		t.Errorf("README.md quickstart output diverged from %s:\nREADME:\n%s\nExample:\n%s", src, got, want)
	}
}

const module = "github.com/memcentric/mcdla"

// harnessPackages are the packages only tests import, by design: the
// analyzers' test harness has their _test.go files as its only importers.
var harnessPackages = map[string]bool{"internal/analysis/analysistest": true}

// TestEveryPackageHasABinaryCaller keeps the library free of packages no
// binary reaches. It follows the non-test imports of every cmd/* main
// package through the module and fails on any internal/... package left
// over: a package only tests and examples import is either dead code or a
// second model of something a binary already runs.
func TestEveryPackageHasABinaryCaller(t *testing.T) {
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		_, imports := goPackage(t, dir)
		for _, imp := range imports {
			if rel, ok := strings.CutPrefix(imp, module+"/"); ok {
				visit(rel)
			}
		}
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		dir = filepath.ToSlash(dir)
		if name, _ := goPackage(t, dir); name == "main" {
			visit(dir)
		}
	}
	if len(reached) == 0 {
		t.Fatal("no main package under cmd/")
	}
	err = filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		dir := filepath.ToSlash(path)
		if name, _ := goPackage(t, dir); name != "" && !reached[dir] && !harnessPackages[dir] {
			t.Errorf("%s: no cmd/* binary imports this package, directly or through another", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goPackage parses the non-test Go files of dir and returns their package
// name ("" when there are none) and the paths they import.
func goPackage(t *testing.T, dir string) (name string, imports []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		name = f.Name.Name
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports = append(imports, path)
		}
	}
	return name, imports
}

// testOnlyExports are the exported symbols no binary reaches that stay on
// purpose, each for one of three reasons: a test oracle the model is checked
// against, a helper the tests of several packages share, or a counter
// benchgate gates.
var testOnlyExports = map[string]string{
	"internal/collective.SimulateRing":     "test oracle: the packet-level ring the analytic model is checked against",
	"internal/collective.ValidateModel":    "test oracle: the analytic model's relative error against SimulateRing",
	"internal/core.MustSimulate":           "cross-package test helper",
	"internal/trace.Log.CriticalPathShare": "cross-package test helper: the overlap figure core's tests and a benchmark read",
	"internal/train.MustBuild":             "cross-package test helper",
	"internal/train.BuildGraph":            "cross-package test helper",
	"internal/train.Schedule.SyncBytes":    "cross-package test helper: the collective payload train's and core's tests check",
	"internal/dnn.Builds":                  "counter benchgate gates: the graph builds train.Builds reports",
	"internal/train.Builds":                "counter benchgate gates: graph and plan builds per cold request",
}

// TestEveryExportHasABinaryCaller is TestEveryPackageHasABinaryCaller at
// symbol grain. It type-checks the module's non-test files and follows every
// reference from the mains of cmd/* and perfbench. A function, variable,
// constant or type is live when live code names it. A method is live when
// live code calls it, or when its type is live and either live code calls a
// method of that name (an interface call) or the standard library can call
// it through one of its interfaces (String, Error, Len, …). Every exported
// symbol of an internal package must be live or listed in testOnlyExports:
// an export only tests call is an API no binary runs.
func TestEveryExportHasABinaryCaller(t *testing.T) {
	loader := analysis.NewLoader()
	var mains, libs []string
	register := func(dir string) {
		name, _ := goPackage(t, dir)
		if name == "" {
			return
		}
		path := module + "/" + filepath.ToSlash(dir)
		loader.AddLocal(path, dir)
		if name == "main" {
			mains = append(mains, path)
		} else {
			libs = append(libs, path)
		}
	}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			register(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	register("perfbench")

	g := newCallGraph()
	for _, path := range append(mains, libs...) {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		g.index(pkg)
	}
	for _, path := range mains {
		pkg, _ := loader.Load(path)
		g.mark(pkg.Types.Scope().Lookup("main"))
	}
	g.solve()

	for _, path := range libs {
		rel := strings.TrimPrefix(path, module+"/")
		if harnessPackages[rel] {
			continue
		}
		for _, obj := range g.declared[path] {
			if !obj.Exported() || g.live[obj] {
				continue
			}
			if recv := receiverType(obj); recv != nil && !g.live[recv] {
				continue // the dead type is reported, or is unexported
			}
			if _, ok := testOnlyExports[rel+"."+symbolName(obj)]; !ok {
				t.Errorf("%s: %s.%s: no cmd/* or perfbench binary reaches this export; delete it, move it into the tests, or list it in testOnlyExports",
					loader.Fset.Position(obj.Pos()), rel, symbolName(obj))
			}
		}
	}
	for key := range testOnlyExports {
		obj := g.lookup(key)
		switch {
		case obj == nil:
			t.Errorf("testOnlyExports: %s names no declared symbol", key)
		case g.live[obj]:
			t.Errorf("testOnlyExports: a binary reaches %s; drop its entry", key)
		}
	}
}

// callGraph is the reachability state of TestEveryExportHasABinaryCaller.
type callGraph struct {
	decl     map[types.Object]ast.Node // package-level object or method → its declaration
	info     map[types.Object]*types.Info
	declared map[string][]types.Object // package path → its objects, in source order
	methods  []*types.Func
	stdlib   map[string][]*types.Signature // standard-library interface methods by name
	seen     map[*types.Package]bool       // standard-library packages indexed
	live     map[types.Object]bool
	called   map[string]bool // method names called from live code
	queue    []types.Object
}

func newCallGraph() *callGraph {
	g := &callGraph{
		decl:     map[types.Object]ast.Node{},
		info:     map[types.Object]*types.Info{},
		declared: map[string][]types.Object{},
		stdlib:   map[string][]*types.Signature{},
		seen:     map[*types.Package]bool{},
		live:     map[types.Object]bool{},
		called:   map[string]bool{},
	}
	g.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return g
}

// index records the declarations of one module package and the interfaces
// of the standard-library packages it imports, directly or through another.
func (g *callGraph) index(pkg *analysis.Package) {
	add := func(id *ast.Ident, n ast.Node) {
		obj := pkg.TypesInfo.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		g.decl[obj], g.info[obj] = n, pkg.TypesInfo
		g.declared[pkg.Path] = append(g.declared[pkg.Path], obj)
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			g.methods = append(g.methods, fn)
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
				if d.Recv == nil && d.Name.Name == "init" {
					g.mark(pkg.TypesInfo.Defs[d.Name]) // every init runs
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, spec)
						}
					}
				}
			}
		}
	}
	for _, imp := range pkg.Types.Imports() {
		g.indexStdlib(imp)
	}
}

// indexStdlib records the interfaces a standard-library package and its
// imports declare.
func (g *callGraph) indexStdlib(p *types.Package) {
	if g.seen[p] || strings.HasPrefix(p.Path(), module) {
		return
	}
	g.seen[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				g.addInterface(iface)
			}
		}
	}
	for _, imp := range p.Imports() {
		g.indexStdlib(imp)
	}
}

func (g *callGraph) addInterface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		g.stdlib[m.Name()] = append(g.stdlib[m.Name()], m.Type().(*types.Signature))
	}
}

// mark makes obj live and queues its declaration; objects declared outside
// the module have none and are ignored.
func (g *callGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := g.decl[obj]; ok && !g.live[obj] {
		g.live[obj] = true
		g.queue = append(g.queue, obj)
	}
}

// solve walks the declarations of live objects until no method becomes
// live through its type.
func (g *callGraph) solve() {
	for len(g.queue) > 0 {
		for len(g.queue) > 0 {
			obj := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			info := g.info[obj]
			ast.Inspect(g.decl[obj], func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					used := info.Uses[id]
					if fn, ok := used.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
						g.called[fn.Name()] = true
					}
					g.mark(used)
				}
				return true
			})
		}
		for _, m := range g.methods {
			if !g.live[m] && g.live[receiverType(m)] && (g.called[m.Name()] || g.implementsStdlib(m)) {
				g.mark(m)
			}
		}
	}
}

// implementsStdlib reports whether m has the name and signature of a
// method of a standard-library interface.
func (g *callGraph) implementsStdlib(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	for _, s := range g.stdlib[m.Name()] {
		if sig.Variadic() == s.Variadic() && types.Identical(sig.Params(), s.Params()) && types.Identical(sig.Results(), s.Results()) {
			return true
		}
	}
	return false
}

// lookup resolves a testOnlyExports key, "<dir>.<Symbol>", to its object.
func (g *callGraph) lookup(key string) types.Object {
	dir, name, _ := strings.Cut(key, ".")
	for _, obj := range g.declared[module+"/"+dir] {
		if symbolName(obj) == name {
			return obj
		}
	}
	return nil
}

// receiverType returns the type name a method is declared on, or nil for
// anything but a method.
func receiverType(obj types.Object) types.Object {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// symbolName spells obj as Go documentation does: Name, or Type.Name for a
// method.
func symbolName(obj types.Object) string {
	if recv := receiverType(obj); recv != nil {
		return recv.Name() + "." + obj.Name()
	}
	return obj.Name()
}
