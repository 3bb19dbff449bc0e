// Package nondeterminism rejects wall-clock, randomness and environment
// reads in the simulator's deterministic core.
//
// The repo's headline invariant — stdout is byte-identical at any
// parallelism, and the same job hash yields a byte-identical report
// (ARCHITECTURE.md) — holds only because nothing on the simulation or
// report path observes the outside world. This analyzer makes that
// mechanical: inside the scoped packages, references to time.Now,
// time.Since, time.Until, anything in math/rand (v1 or v2),
// os.Getenv/LookupEnv/Environ, and the obs registry's wall-clock helpers
// (obs.StartTimer, obs.SinceSeconds) are diagnostics — the last so the
// telemetry plane's service face cannot leak wall-clock readings into
// simulated timelines or reports.
//
// Deliberate exceptions carry an in-code allowlist directive with a
// reason, e.g. the HTTP server's uptime field and the store queue's
// stale-claim aging (wall-clock that never reaches a record):
//
//	//mcdlalint:allow nondeterminism -- uptime is operational telemetry, not report output
package nondeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"github.com/memcentric/mcdla/internal/analysis"
)

// Scope matches the packages that must stay deterministic: the simulation
// engines and everything between them and rendered bytes, including the
// HTTP façade (whose uptime field is the one documented allowlist entry).
// The runner and trace packages are covered transitively: they are in
// scope too.
var Scope = regexp.MustCompile(`(^|/)internal/(sim|core|scaleout|collective|vmem|compress|dnn|train|experiments|report|store|dse|cost|power|runner|trace|server|fleet)(/|$)`)

// banned maps package path → names whose use is nondeterministic. An
// empty name set bans the whole package.
var banned = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"math/rand":    nil,
	"math/rand/v2": nil,
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// obsPkg matches the telemetry registry package by path suffix (the real
// module path and the testdata fixture path both end in internal/obs), and
// obsWallclock names its wall-clock helpers. The registry's counters and
// gauges are fine anywhere — a counter bump is just an atomic add — but the
// timer constructors observe the wall clock, so inside the deterministic
// scope they are exactly as banned as time.Now. The HTTP middleware's
// request timer is the documented allowlist entry.
var (
	obsPkg       = regexp.MustCompile(`(^|/)internal/obs$`)
	obsWallclock = map[string]bool{"StartTimer": true, "SinceSeconds": true}
)

var Analyzer = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc: "reject wall-clock, randomness and environment reads in deterministic packages\n\n" +
		"Flags references to time.Now/Since/Until, math/rand, and os.Getenv/LookupEnv/Environ\n" +
		"inside the simulator's deterministic core. Suppress a deliberate use with\n" +
		"//mcdlalint:allow nondeterminism -- <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !Scope.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	// TypesInfo.Uses is a map; collect idents first and sort by position
	// so the run itself is deterministic. Tests may use fixed-seed
	// randomness and wall-clock assertions, so uses outside the non-test
	// files are skipped (see NonTestFiles).
	inScope := make(map[*ast.File]bool)
	for _, f := range analysis.NonTestFiles(pass) {
		inScope[f] = true
	}
	fileFor := func(pos token.Pos) *ast.File {
		for _, f := range pass.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return f
			}
		}
		return nil
	}
	var idents []*ast.Ident
	for id, obj := range pass.TypesInfo.Uses {
		if bannedObject(obj) && inScope[fileFor(id.Pos())] {
			idents = append(idents, id)
		}
	}
	sort.Slice(idents, func(i, j int) bool { return idents[i].Pos() < idents[j].Pos() })
	for _, id := range idents {
		obj := pass.TypesInfo.Uses[id]
		pass.Reportf(id.Pos(), "%s.%s is nondeterministic: %s must not observe wall-clock, randomness or the environment (see %s)",
			obj.Pkg().Path(), obj.Name(), pass.Pkg.Path(), analysis.AllowPrefix)
	}
	return nil, nil
}

func bannedObject(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	names, ok := banned[pkg.Path()]
	if !ok {
		if obsPkg.MatchString(pkg.Path()) {
			return obsWallclock[obj.Name()]
		}
		return false
	}
	if names == nil {
		// Whole package banned; only count package-level members, not
		// e.g. a local variable that happens to live in a rand file.
		return obj.Parent() == pkg.Scope()
	}
	return names[obj.Name()]
}
