package trace

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSeriesAdd(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(1, 2)
	s.Add(3, 4)
	if s.Len() != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Fatalf("series %+v", s)
	}
}

func TestPlotRender(t *testing.T) {
	s := &Series{Name: "mapped"}
	for i := 0; i < 50; i++ {
		s.Add(float64(i), 93+float64(i%3))
	}
	p := NewPlot("test plot", "slot", "cycles")
	p.AddSeries(s, 'o')
	out := p.Render()
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "o=mapped") {
		t.Fatalf("plot output:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Fatal("no data points rendered")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 16 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
}

func TestPlotEmpty(t *testing.T) {
	p := NewPlot("empty", "", "")
	out := p.Render()
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty plot output %q", out)
	}
}

func TestPlotConstantSeries(t *testing.T) {
	s := &Series{Name: "flat"}
	s.Add(0, 5)
	s.Add(1, 5)
	p := NewPlot("flat", "", "")
	p.AddSeries(s, '*')
	if out := p.Render(); !strings.Contains(out, "*") {
		t.Fatal("constant series dropped (degenerate y-range)")
	}
}

func TestTableAlignment(t *testing.T) {
	tab := &Table{Header: []string{"name", "value", "note"}}
	tab.AddRow("short", "1", "-")
	tab.AddRow("a-much-longer-name", "22±0.5 ≤ 30", "x")
	out := tab.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatalf("no separator: %q", lines[1])
	}
	// Columns align in runes, multi-byte cells included: each column
	// starts at the same rune offset on every line.
	runeIndex := func(line, sub string) int {
		return utf8.RuneCountInString(line[:strings.Index(line, sub)])
	}
	if runeIndex(lines[3], "22") != runeIndex(lines[0], "value") {
		t.Fatalf("misaligned value column:\n%s", out)
	}
	note := runeIndex(lines[0], "note")
	for _, c := range []struct{ line, cell string }{{lines[2], "-"}, {lines[3], "x"}} {
		if got := runeIndex(c.line, c.cell); got != note {
			t.Fatalf("note cell %q at rune %d, header at %d:\n%s", c.cell, got, note, out)
		}
	}
	// The separator dashes span each column's width in runes.
	if sep := strings.Fields(lines[1]); len(sep[1]) != utf8.RuneCountInString("22±0.5 ≤ 30") {
		t.Fatalf("value separator %d dashes:\n%s", len(sep[1]), out)
	}
}

func TestRenderTimeline(t *testing.T) {
	rows := []TimelineRow{
		{Label: "job", Depth: 0, StartNs: 0, EndNs: 4_000_000},
		{Label: "queue", Depth: 1, StartNs: 0, EndNs: 1_000_000},
		{Label: "attempt", Depth: 1, StartNs: 1_000_000, EndNs: 4_000_000},
		{Label: "execute", Depth: 2, StartNs: 1_500_000, EndNs: 3_900_000},
	}
	out := RenderTimeline("job 42", rows, 40)
	if !strings.Contains(out, "job 42") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title + 4 rows + axis
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "  attempt") {
		t.Fatalf("depth indent missing: %q", lines[3])
	}
	if !strings.Contains(lines[1], "4.000ms") || !strings.Contains(lines[2], "1.000ms") {
		t.Fatalf("durations missing:\n%s", out)
	}
	// Child bars start no earlier than the root's origin column.
	if strings.Index(lines[4], "|") <= strings.Index(lines[1], "|") {
		t.Fatalf("execute bar not offset:\n%s", out)
	}
}

func TestRenderTimelineEdgeCases(t *testing.T) {
	if out := RenderTimeline("t", nil, 40); !strings.Contains(out, "(no spans)") {
		t.Fatalf("empty timeline: %q", out)
	}
	// Unclosed span renders open-ended instead of panicking.
	out := RenderTimeline("t", []TimelineRow{{Label: "hung", StartNs: 100}}, 40)
	if !strings.Contains(out, ">") || !strings.Contains(out, "...") {
		t.Fatalf("open span not rendered open-ended:\n%s", out)
	}
	// Labels are sized and padded in runes: two 2-rune labels, one of them
	// multi-byte, both start their bars in rune column 3.
	out = RenderTimeline("", []TimelineRow{{Label: "ab", EndNs: 10}, {Label: "µs", EndNs: 10}}, 20)
	for _, line := range strings.Split(out, "\n")[:2] {
		if col := utf8.RuneCountInString(line[:strings.Index(line, "|")]); col != 3 {
			t.Fatalf("bar starts in rune column %d, want 3:\n%s", col, out)
		}
	}
}
