// Package report is the typed results layer between the experiment
// generators and every consumer of their output: the CLI, the HTTP service,
// tests, and downstream scripts. Experiments build Report values — a titled
// sequence of sections holding tables of typed cells, key/value summaries,
// and free-form note lines — and pluggable renderers turn one Report into
// paper-style text (byte-identical to the golden CLI fixtures), JSON, CSV,
// or GitHub-flavored markdown.
//
// A Cell carries both the paper's exact presentation string (Text) and the
// underlying datum (Value), so the text renderer reproduces the published
// tables while the JSON renderer exposes machine-consumable numbers without
// re-parsing formatted strings.
package report

import (
	"fmt"
	"strconv"

	"github.com/memcentric/mcdla/internal/units"
)

// Report is one experiment's full result document.
type Report struct {
	// Name is the machine-readable experiment identifier (e.g. "fig13").
	Name string `json:"name"`
	// Title is the human heading; the text renderer prints it as the first
	// line when non-empty.
	Title string `json:"title,omitempty"`
	// Sections hold the body in presentation order.
	Sections []Section `json:"sections"`
}

// Section is one contiguous block of a report: an optional heading line, an
// optional table, an optional key/value list, and trailing note lines.
type Section struct {
	Heading string `json:"heading,omitempty"`
	Table   *Table `json:"table,omitempty"`
	KVs     []KV   `json:"kvs,omitempty"`
	// Notes are free-form lines the text renderer prints verbatim (one
	// trailing newline each): paper references, analysis prose, inventory
	// listings whose layout predates the typed layer.
	Notes []string `json:"notes,omitempty"`
}

// Table is a rectangular result grid.
type Table struct {
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// Row is one table row, cell-per-column.
type Row []Cell

// Cell is one datum: the exact presentation string plus, when the datum is
// not purely textual, its typed value.
type Cell struct {
	Text string `json:"text"`
	// Value is the underlying datum (float64, int, or a small struct) for
	// machine consumers; nil for plain-string cells.
	Value any `json:"value,omitempty"`
}

// KV is one entry of a key/value summary block (the `run` and `config`
// subcommands' presentation shape). Label is the exact text-mode prefix —
// indentation and column padding included — so the text renderer reproduces
// hand-aligned layouts byte-for-byte; Key is the machine name.
type KV struct {
	Key   string `json:"key"`
	Text  string `json:"text"`
	Value any    `json:"value,omitempty"`
	Label string `json:"label,omitempty"`
}

// Merge concatenates several reports into one document under the given
// machine name: the first report's title becomes the document title, and
// every following report's title is demoted to a heading on its first
// section, so the merged text rendering is exactly the concatenation of the
// parts' text renderings.
func Merge(name string, reps ...*Report) *Report {
	out := &Report{Name: name}
	for i, r := range reps {
		if r == nil {
			continue
		}
		if i == 0 {
			out.Title = r.Title
			out.Sections = append(out.Sections, r.Sections...)
			continue
		}
		for j, s := range r.Sections {
			if j == 0 && r.Title != "" {
				if s.Heading != "" {
					// Two heading lines: keep both by prepending a
					// title-only section.
					out.Sections = append(out.Sections, Section{Heading: r.Title})
				} else {
					s.Heading = r.Title
				}
			}
			out.Sections = append(out.Sections, s)
		}
		if len(r.Sections) == 0 && r.Title != "" {
			out.Sections = append(out.Sections, Section{Heading: r.Title})
		}
	}
	return out
}

// NewTable starts a table with the given column headers.
func NewTable(columns ...string) *Table { return &Table{Columns: columns} }

// AddRow appends a row; short rows are padded with empty cells so every row
// spans the full column set.
func (t *Table) AddRow(cells ...Cell) {
	row := make(Row, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// ------------------------------------------------------------ cell builders

// Str builds a plain text cell.
func Str(s string) Cell { return Cell{Text: s} }

// Int builds an integer cell rendered in decimal.
func Int(n int) Cell { return Cell{Text: strconv.Itoa(n), Value: n} }

// Num builds a numeric cell whose presentation string is produced by the
// caller's exact format (the paper's "%.2fx", "%.0f%%", … conventions) while
// the raw value stays available to machine renderers.
func Num(text string, v float64) Cell { return Cell{Text: text, Value: v} }

// Numf builds a numeric cell formatting v with the given verb.
func Numf(format string, v float64) Cell { return Num(fmt.Sprintf(format, v), v) }

// Pct builds a percentage cell from a fraction: "62.5%" text with the raw
// fraction (0.625) as the typed value, so machine renderers never re-parse
// the formatted string.
func Pct(frac float64) Cell { return Num(fmt.Sprintf("%.1f%%", frac*100), frac) }

// Time builds a cell from a simulated duration: paper-style text, seconds as
// the typed value.
func Time(t units.Time) Cell { return Cell{Text: t.String(), Value: t.Seconds()} }

// Bytes builds a cell from a byte quantity: human-readable text, raw byte
// count as the typed value.
func Bytes(b units.Bytes) Cell { return Cell{Text: b.String(), Value: int64(b)} }
