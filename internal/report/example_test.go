package report_test

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/units"
)

// Example builds a small report and renders it as paper-style text — the
// same pipeline every mcdla subcommand and /v1 endpoint runs.
func Example() {
	tab := report.NewTable("design", "iteration", "speedup")
	tab.AddRow(report.Str("DC-DLA"), report.Time(units.Seconds(0.1115)), report.Num("1.0000x", 1))
	tab.AddRow(report.Str("MC-DLA(B)"), report.Time(units.Seconds(0.0511)), report.Num("2.1800x", 2.18))
	r := &report.Report{
		Name:     "demo",
		Title:    "Demo: two design points",
		Sections: []report.Section{{Table: tab, Notes: []string{"MC-DLA(B) keeps the full advantage."}}},
	}
	fmt.Print(report.Text(r))
	// Output:
	// Demo: two design points
	// design     iteration   speedup
	// ---------  ----------  -------
	// DC-DLA     111.500 ms  1.0000x
	// MC-DLA(B)  51.100 ms   2.1800x
	// MC-DLA(B) keeps the full advantage.
}

// ExampleMarkdown renders the same table as a GitHub pipe table, the shape
// EXPERIMENTS.md embeds.
func ExampleMarkdown() {
	tab := report.NewTable("design", "speedup")
	tab.AddRow(report.Str("MC-DLA(B)"), report.Num("2.18x", 2.18))
	r := &report.Report{Name: "demo", Title: "Demo", Sections: []report.Section{{Table: tab}}}
	fmt.Print(report.Markdown(r))
	// Output:
	// ## Demo
	//
	// | design | speedup |
	// | --- | --- |
	// | MC-DLA(B) | 2.18x |
}
