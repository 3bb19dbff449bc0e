// Package analysistest runs an analyzer over a GOPATH-style fixture
// tree and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the repo's stdlib-only
// framework.
//
// A fixture file marks each expected diagnostic on the offending line:
//
//	_ = time.Now() // want `time\.Now is nondeterministic`
//
// Each backquoted (or double-quoted) string is a regexp that must match
// the message of a diagnostic reported on that line; every diagnostic
// must be claimed by exactly one expectation and vice versa.
package analysistest

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/analysis"
)

// Run loads each package path from testdata/src and reports any
// mismatch between the analyzer's diagnostics and the fixtures' want
// comments as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.NewLoader()
	if err := addFixtureTree(loader, filepath.Join(testdata, "src")); err != nil {
		t.Fatalf("scanning %s: %v", testdata, err)
	}
	for _, path := range pkgs {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := analysis.RunAnalyzer(a, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkDiagnostics(t, pkg, diags)
	}
}

// addFixtureTree registers every directory under root that contains .go
// files as a local package whose import path is its path below root — the
// GOPATH-style layout of a testdata/src tree.
func addFixtureTree(l *analysis.Loader, root string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				l.AddLocal(filepath.ToSlash(rel), p)
				break
			}
		}
		return nil
	})
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func checkDiagnostics(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, tok := range wantRE.FindAllString(text[len("want "):], -1) {
					pat := tok[1 : len(tok)-1]
					if tok[0] == '"' {
						var err error
						if pat, err = strconv.Unquote(tok); err != nil {
							t.Errorf("%s: bad want pattern %s: %v", pos, tok, err)
							continue
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
