package report

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Format selects a renderer.
type Format string

// The supported output formats.
const (
	FormatText     Format = "text"
	FormatJSON     Format = "json"
	FormatCSV      Format = "csv"
	FormatMarkdown Format = "md"
)

// ParseFormat resolves a user-supplied format name.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "text", "txt":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "csv":
		return FormatCSV, nil
	case "md", "markdown":
		return FormatMarkdown, nil
	}
	return "", fmt.Errorf("unknown format %q (want text, json, csv or md)", s)
}

// Render renders r in the given format.
func Render(r *Report, f Format) (string, error) {
	switch f {
	case FormatText:
		return Text(r), nil
	case FormatJSON:
		b, err := JSON(r)
		return string(b), err
	case FormatCSV:
		return CSV(r), nil
	case FormatMarkdown:
		return Markdown(r), nil
	}
	return "", fmt.Errorf("unknown format %q", f)
}

// ------------------------------------------------------------------- text

// Text renders the report in the paper's presentation shape. The table
// layout (fixed-width columns, two-space gutters, a dashed rule under the
// header, every cell left-justified to its column width) is pinned byte for
// byte by the golden CLI fixtures under cmd/mcdla/testdata.
func Text(r *Report) string {
	var b strings.Builder
	if r.Title != "" {
		b.WriteString(r.Title)
		b.WriteByte('\n')
	}
	for _, s := range r.Sections {
		if s.Heading != "" {
			b.WriteString(s.Heading)
			b.WriteByte('\n')
		}
		if s.Table != nil {
			writeTextTable(&b, s.Table)
		}
		for _, kv := range s.KVs {
			b.WriteString(kv.Label)
			b.WriteString(kv.Text)
			b.WriteByte('\n')
		}
		for _, line := range s.Notes {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func writeTextTable(b *strings.Builder, t *Table) {
	widths := make([]int, len(t.Columns))
	for i, h := range t.Columns {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	cells := make([]string, len(t.Columns))
	for _, row := range t.Rows {
		for i := range cells {
			cells[i] = ""
			if i < len(row) {
				cells[i] = row[i].Text
			}
		}
		writeRow(cells)
	}
}

// ------------------------------------------------------------------- json

// JSON renders the report as indented JSON, terminated by a newline. Cell
// values surface the typed datum alongside the presentation text.
func JSON(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// -------------------------------------------------------------------- csv

// CSV renders every table in the report as RFC 4180 records: a `# heading`
// comment line locates each table (section heading, falling back to the
// report title), then the column header and one record per row. Numeric
// cells emit their raw value (so "51.141 ms" becomes 0.051141 and "2.18x"
// becomes 2.18); plain cells emit their text. Key/value sections emit
// key,value records. Note lines attached to data-bearing sections are
// omitted, but a section carrying only notes (the config/networks
// inventories) emits them as `# ` comment lines so no report renders to an
// empty document.
func CSV(r *Report) string {
	var b strings.Builder
	first := true
	sep := func() {
		if !first {
			b.WriteByte('\n')
		}
		first = false
	}
	for _, s := range r.Sections {
		caption := s.Heading
		if caption == "" {
			caption = r.Title
		}
		if s.Table != nil {
			sep()
			if caption != "" {
				fmt.Fprintf(&b, "# %s\n", caption)
			}
			b.WriteString(csvRecord(s.Table.Columns))
			for _, row := range s.Table.Rows {
				fields := make([]string, len(s.Table.Columns))
				for i := range fields {
					if i < len(row) {
						fields[i] = csvCell(row[i])
					}
				}
				b.WriteString(csvRecord(fields))
			}
		}
		if len(s.KVs) > 0 {
			sep()
			if caption != "" {
				fmt.Fprintf(&b, "# %s\n", caption)
			}
			b.WriteString(csvRecord([]string{"key", "value"}))
			for _, kv := range s.KVs {
				b.WriteString(csvRecord([]string{kv.Key, csvCell(Cell{Text: kv.Text, Value: kv.Value})}))
			}
		}
		if s.Table == nil && len(s.KVs) == 0 && len(s.Notes) > 0 {
			sep()
			if caption != "" {
				fmt.Fprintf(&b, "# %s\n", caption)
			}
			for _, line := range s.Notes {
				fmt.Fprintf(&b, "# %s\n", line)
			}
		}
	}
	return b.String()
}

func csvCell(c Cell) string {
	switch v := c.Value.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	}
	return c.Text
}

func csvRecord(fields []string) string {
	out := make([]string, len(fields))
	for i, f := range fields {
		if strings.ContainsAny(f, ",\"\n") {
			f = "\"" + strings.ReplaceAll(f, "\"", "\"\"") + "\""
		}
		out[i] = f
	}
	return strings.Join(out, ",") + "\n"
}

// --------------------------------------------------------------- markdown

// Markdown renders the report as GitHub-flavored markdown: the title as a
// second-level heading, section headings bold, tables as pipe tables, and
// notes as paragraphs.
func Markdown(r *Report) string {
	var b strings.Builder
	if r.Title != "" {
		fmt.Fprintf(&b, "## %s\n", r.Title)
	}
	for _, s := range r.Sections {
		if s.Heading != "" {
			fmt.Fprintf(&b, "\n**%s**\n", s.Heading)
		}
		if s.Table != nil {
			b.WriteByte('\n')
			writeMarkdownRow(&b, s.Table.Columns)
			rule := make([]string, len(s.Table.Columns))
			for i := range rule {
				rule[i] = "---"
			}
			writeMarkdownRow(&b, rule)
			for _, row := range s.Table.Rows {
				cells := make([]string, len(s.Table.Columns))
				for i := range cells {
					if i < len(row) {
						cells[i] = row[i].Text
					}
				}
				writeMarkdownRow(&b, cells)
			}
		}
		if len(s.KVs) > 0 {
			b.WriteByte('\n')
			for _, kv := range s.KVs {
				fmt.Fprintf(&b, "- **%s:** %s\n", kv.Key, kv.Text)
			}
		}
		if len(s.Notes) > 0 {
			b.WriteByte('\n')
			for _, line := range s.Notes {
				b.WriteString(escapeMarkdownLine(line))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func writeMarkdownRow(b *strings.Builder, cells []string) {
	b.WriteString("|")
	for _, c := range cells {
		b.WriteString(" ")
		b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
		b.WriteString(" |")
	}
	b.WriteByte('\n')
}

func escapeMarkdownLine(s string) string {
	// Note lines are prose; only pipe characters would break a following
	// table context, and leading indentation reads as a code block — both
	// are fine for the inventory-style sections, so pass lines through.
	return s
}
