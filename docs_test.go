package mcdla

import (
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

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

// TestEveryPackageHasABinaryCaller keeps the library free of packages no
// binary reaches. It follows the non-test imports of every cmd/* main
// package through the module and fails on any internal/... package left
// over: a package only tests and examples import is either dead code or a
// second model of something a binary already runs.
func TestEveryPackageHasABinaryCaller(t *testing.T) {
	const module = "github.com/memcentric/mcdla/"
	exempt := map[string]bool{
		// The analyzers' test harness: their _test.go files are its only
		// importers, by design.
		"internal/analysis/analysistest": true,
	}
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		_, imports := goPackage(t, dir)
		for _, imp := range imports {
			if rel, ok := strings.CutPrefix(imp, module); ok {
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
		if name, _ := goPackage(t, dir); name != "" && !reached[dir] && !exempt[dir] {
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
