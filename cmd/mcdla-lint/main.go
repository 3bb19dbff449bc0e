// Command mcdla-lint runs the repo's invariant analyzers (ctxflow,
// exhaustive, floatguard, maporder, nondeterminism — see internal/analysis)
// over Go packages:
//
//	go run ./cmd/mcdla-lint ./...
//
// loads the named packages from source (no build cache, no cgo) and
// prints one line per finding:
//
//	internal/experiments/explore.go:110:24: [ctxflow] context.Background() in library code ...
//
// Exit status is 0 for a clean run, 1 when any diagnostic is reported,
// 2 on operational errors.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/memcentric/mcdla/internal/analysis"
	"github.com/memcentric/mcdla/internal/analysis/all"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 || strings.HasPrefix(patterns[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: mcdla-lint packages...")
		os.Exit(2)
	}
	os.Exit(lint(patterns, all.Analyzers()))
}

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// lint loads the packages matching the patterns from source and runs
// the analyzers over every non-dependency match.
func lint(patterns []string, analyzers []*analysis.Analyzer) int {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly", "-deps"}, patterns...)...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdla-lint: go list:", err)
		return 2
	}

	loader := analysis.NewLoader()
	var roots []*analysis.Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "mcdla-lint: decoding go list output:", err)
			return 2
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue // stdlib resolves through the source importer
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		loader.AddLocal(p.ImportPath, p.Dir)
		pkg, err := loader.LoadFiles(p.ImportPath, files)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcdla-lint:", err)
			return 2
		}
		if !p.DepOnly {
			roots = append(roots, pkg)
		}
	}

	if len(roots) == 0 {
		fmt.Fprintf(os.Stderr, "mcdla-lint: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}

	type finding struct {
		position, analyzer, message string
	}
	var findings []finding
	for _, pkg := range roots {
		for _, a := range analyzers {
			diags, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcdla-lint:", err)
				return 2
			}
			for _, d := range diags {
				findings = append(findings, finding{pkg.Fset.Position(d.Pos).String(), a.Name, d.Message})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].position != findings[j].position {
			return findings[i].position < findings[j].position
		}
		return findings[i].analyzer < findings[j].analyzer
	})

	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.position, f.analyzer, f.message)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
