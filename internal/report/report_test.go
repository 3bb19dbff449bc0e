package report

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

func TestTextTitleHeadingNotesOrder(t *testing.T) {
	r := &Report{
		Name:  "order",
		Title: "Figure N: something",
		Sections: []Section{
			{Heading: "part one", Notes: []string{"note a", "note b"}},
			{KVs: []KV{{Key: "iteration_time", Label: "  iteration time:        ", Text: "51.141 ms", Value: 0.051141}}},
		},
	}
	want := "Figure N: something\npart one\nnote a\nnote b\n  iteration time:        51.141 ms\n"
	if got := Text(r); got != want {
		t.Fatalf("text order:\ngot  %q\nwant %q", got, want)
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"":         FormatText,
		"text":     FormatText,
		"JSON":     FormatJSON,
		"csv":      FormatCSV,
		"md":       FormatMarkdown,
		"markdown": FormatMarkdown,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("ParseFormat accepted yaml")
	}
}

func TestJSONExposesTypedValues(t *testing.T) {
	tab := NewTable("design", "iter")
	tab.AddRow(Str("MC-DLA(B)"), Time(units.Seconds(0.051141)))
	r := &Report{Name: "run", Title: "t", Sections: []Section{{Table: tab}}}
	b, err := JSON(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	cell := back.Sections[0].Table.Rows[0][1]
	if cell.Text != "51.141 ms" {
		t.Fatalf("cell text = %q", cell.Text)
	}
	v, ok := cell.Value.(float64)
	if !ok || v < 0.0511 || v > 0.0512 {
		t.Fatalf("cell value = %#v, want ~0.051141 seconds", cell.Value)
	}
}

func TestCSVEmitsRawNumbersAndQuotes(t *testing.T) {
	tab := NewTable("workload, with comma", "iter", "speedup")
	tab.AddRow(Str(`say "hi"`), Time(units.Seconds(0.002)), Num("2.18x", 2.18))
	r := &Report{Name: "x", Title: "ti", Sections: []Section{
		{Table: tab},
		{Heading: "summary", KVs: []KV{{Key: "gap", Text: "2.80x", Value: 2.8}}},
	}}
	got := CSV(r)
	want := "# ti\n" +
		"\"workload, with comma\",iter,speedup\n" +
		"\"say \"\"hi\"\"\",0.002,2.18\n" +
		"\n# summary\nkey,value\ngap,2.8\n"
	if got != want {
		t.Fatalf("csv:\ngot  %q\nwant %q", got, want)
	}
}

// TestCSVNotesOnlyReportIsNotEmpty guards the inventory reports (networks,
// config): a report whose sections carry only notes must still render to a
// visible CSV document, not zero bytes with a success status.
func TestCSVNotesOnlyReportIsNotEmpty(t *testing.T) {
	r := &Report{Name: "inv", Sections: []Section{
		{Heading: "Inventory:", Notes: []string{"  item one", "  item two"}},
	}}
	got := CSV(r)
	want := "# Inventory:\n#   item one\n#   item two\n"
	if got != want {
		t.Fatalf("notes-only csv:\ngot  %q\nwant %q", got, want)
	}
}

func TestMarkdownTable(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow(Str("1|2"), Int(3))
	r := &Report{Name: "m", Title: "Title", Sections: []Section{{Table: tab, Notes: []string{"done"}}}}
	got := Markdown(r)
	for _, want := range []string{"## Title", "| a | b |", "| --- | --- |", "| 1\\|2 | 3 |", "done"} {
		if !strings.Contains(got, want) {
			t.Fatalf("markdown missing %q in:\n%s", want, got)
		}
	}
}

func TestRenderDispatch(t *testing.T) {
	tab := NewTable("a")
	tab.AddRow(Int(1))
	r := &Report{Name: "d", Title: "T", Sections: []Section{{Table: tab}}}
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV, FormatMarkdown} {
		out, err := Render(r, f)
		if err != nil || out == "" {
			t.Fatalf("Render(%s) = %q, %v", f, out, err)
		}
	}
	if _, err := Render(r, Format("nope")); err == nil {
		t.Fatal("Render accepted unknown format")
	}
}

func TestPctCell(t *testing.T) {
	c := Pct(0.625)
	if c.Text != "62.5%" {
		t.Fatalf("pct text = %q", c.Text)
	}
	if c.Value.(float64) != 0.625 {
		t.Fatalf("pct value = %#v (want the raw fraction)", c.Value)
	}
	if c = Pct(0); c.Text != "0.0%" {
		t.Fatalf("zero pct text = %q", c.Text)
	}
}

func TestBytesCell(t *testing.T) {
	c := Bytes(units.Bytes(3 * 1024 * 1024))
	if c.Value.(int64) != 3*1024*1024 {
		t.Fatalf("bytes value = %#v", c.Value)
	}
	if c.Text == "" {
		t.Fatal("bytes text empty")
	}
}
