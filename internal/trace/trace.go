// Package trace renders experiment results for the terminal: ASCII
// scatter/line plots in the style of the paper's Figures 4–7, aligned
// tables, and span timelines.
package trace

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Series is one named (x, y) sequence.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Plot configures an ASCII plot.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot columns (default 78)
	Height int // plot rows (default 16)
	series []*Series
	marks  []byte
}

// NewPlot creates a plot with a title.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 78, Height: 16}
}

// AddSeries attaches a series with a point mark.
func (p *Plot) AddSeries(s *Series, mark byte) {
	p.series = append(p.series, s)
	p.marks = append(p.marks, mark)
}

// Render draws the plot as text.
func (p *Plot) Render() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 78
	}
	if h <= 0 {
		h = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range p.series {
		for i := 0; i < s.Len(); i++ {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
			total++
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	if total == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range p.series {
		for i := 0; i < s.Len(); i++ {
			c := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			r := h - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(h-1))
			grid[r][c] = p.marks[si]
		}
	}
	for r, row := range grid {
		yv := maxY - (maxY-minY)*float64(r)/float64(h-1)
		fmt.Fprintf(&b, "%9.1f |%s\n", yv, string(row))
	}
	fmt.Fprintf(&b, "%9s  %s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%9s  %-*g%*g\n", "", w/2, minX, w-w/2, maxX)
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "%9s  x: %s   y: %s\n", "", p.XLabel, p.YLabel)
	}
	legend := make([]string, 0, len(p.series))
	for si, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c=%s", p.marks[si], s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "%9s  %s\n", "", strings.Join(legend, "  "))
	}
	return b.String()
}

// Table renders rows with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table. Column widths count runes, as the %-*s
// padding does, so cells holding multi-byte runes (±, ≤, ×) align.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = utf8.RuneCountInString(hcell)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// TimelineRow is one bar of a span timeline: a labelled [StartNs, EndNs)
// interval at a tree depth. Rows come pre-ordered (depth-first over the
// span tree); the renderer only scales them onto a shared axis.
type TimelineRow struct {
	Label   string
	Depth   int
	StartNs int64
	EndNs   int64
}

// RenderTimeline draws rows as an ASCII Gantt chart: one line per row,
// label indented by depth, bar positioned on a shared 0..max(EndNs) axis
// of the given width (default 60 columns). Unclosed spans (EndNs 0) are
// drawn open-ended.
func RenderTimeline(title string, rows []TimelineRow, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if len(rows) == 0 {
		b.WriteString("(no spans)\n")
		return b.String()
	}
	var maxNs int64
	labelW := 0
	for _, r := range rows {
		if r.EndNs > maxNs {
			maxNs = r.EndNs
		}
		if r.StartNs > maxNs {
			maxNs = r.StartNs
		}
		if lw := 2*r.Depth + utf8.RuneCountInString(r.Label); lw > labelW {
			labelW = lw
		}
	}
	if maxNs == 0 {
		maxNs = 1
	}
	col := func(ns int64) int {
		c := int(float64(ns) / float64(maxNs) * float64(width-1))
		if c > width-1 {
			c = width - 1
		}
		return c
	}
	for _, r := range rows {
		label := strings.Repeat("  ", r.Depth) + r.Label
		bar := []byte(strings.Repeat(" ", width))
		start := col(r.StartNs)
		end, open := width-1, true
		if r.EndNs > 0 {
			end, open = col(r.EndNs), false
		}
		for c := start; c <= end; c++ {
			bar[c] = '='
		}
		bar[start] = '|'
		if open {
			bar[width-1] = '>'
		} else if end > start {
			bar[end] = '|'
		}
		dur := "..."
		if !open {
			dur = fmt.Sprintf("%.3fms", float64(r.EndNs-r.StartNs)/1e6)
		}
		fmt.Fprintf(&b, "%-*s %s %s\n", labelW, label, string(bar), dur)
	}
	fmt.Fprintf(&b, "%-*s 0%*s\n", labelW, "", width+7, fmt.Sprintf("%.3fms", float64(maxNs)/1e6))
	return b.String()
}
