package mcdla

import (
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
// CLI: every command of the experiments table, plus the CLI's own trace,
// serve and all, must appear in README.md.
func TestDocsMentionEverySubcommand(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	subs := []string{"trace", "serve", "all"}
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
