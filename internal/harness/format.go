package harness

import (
	"fmt"
	"strings"
)

// Grid is an experiment's numeric form: its panels in print order.
// Every number an experiment prints is a cell of its grid, named by
// (experiment, panel, row, column).
type Grid []*Table

// Table is one panel of a grid: a title, column headers, rows of
// cells and footnotes. Its String is the one text renderer every
// experiment's output goes through.
type Table struct {
	// Exp is the id of the experiment the panel belongs to.
	Exp string
	// Name identifies the panel within its experiment ("5a", "Low");
	// it is empty for an experiment's only panel.
	Name   string
	Title  string
	Header []string
	Rows   []Row
	Notes  []string
	// Gap prints a blank line after the panel.
	Gap bool
}

// Row is one line of a panel.
type Row struct {
	// ID names the row in cell IDs: its first cell's text unless the
	// panel sets it otherwise.
	ID    string
	Cells []Cell
}

// Cell is one entry of a row: a number and the format it prints in,
// or, with an empty Format, a text cell.
type Cell struct {
	Value float64
	// Format is a fmt layout for Value ("%.1f", "%+.0f%%"), one of
	// fmtRatio, fmtCount and fmtShade, or empty for a text cell.
	Format string
	Text   string
}

// The cell formats that are not a single fmt layout.
const (
	fmtRatio = "fx"       // fx: "12.3x"
	fmtCount = "fc"       // fc: "49.6K"
	fmtShade = "shade fx" // a log-scale heat character, a space, then fx
)

// num is a numeric cell.
func num(v float64, format string) Cell { return Cell{Value: v, Format: format} }

// ratio is a cell printed by fx.
func ratio(v float64) Cell { return num(v, fmtRatio) }

// count is a cell printed by fc.
func count[T float64 | uint64 | int](v T) Cell { return num(float64(v), fmtCount) }

// label is a text cell.
func label(s string) Cell { return Cell{Text: s} }

// String renders the cell in its format.
func (c Cell) String() string {
	switch c.Format {
	case "":
		return c.Text
	case fmtRatio:
		return fx(c.Value)
	case fmtCount:
		return fc(c.Value)
	case fmtShade:
		return shade(c.Value) + " " + fx(c.Value)
	default:
		return fmt.Sprintf(c.Format, c.Value)
	}
}

// AddRow appends one row, named by its first cell's text. A row that
// is not header-wide is a bug in the experiment, so it panics.
func (t *Table) AddRow(cells ...Cell) { t.addRow(cells[0].String(), cells...) }

// addRow appends one row named id.
func (t *Table) addRow(id string, cells ...Cell) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("harness: %q row %q has %d cells for %d columns", t.Title, id, len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, Row{ID: id, Cells: cells})
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the panel with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	rows := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		rows[r] = make([]string, len(row.Cells))
		for i, c := range row.Cells {
			rows[r][i] = c.String()
			widths[i] = max(widths[i], len(rows[r][i]))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	if t.Gap {
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders every panel in order.
func (g Grid) String() string {
	var b strings.Builder
	for _, t := range g {
		b.WriteString(t.String())
	}
	return b.String()
}

// Value returns the value of the cell (exp, panel, row, col). A cell
// outside the grid is a bug in the experiment, so it panics.
func (g Grid) Value(exp, panel, row, col string) float64 {
	for _, t := range g {
		if t.Exp != exp || t.Name != panel {
			continue
		}
		for _, r := range t.Rows {
			if r.ID != row {
				continue
			}
			for i, h := range t.Header {
				if h == col {
					return r.Cells[i].Value
				}
			}
		}
	}
	panic(fmt.Sprintf("harness: no cell %s/%s/%s/%s in the grid", exp, panel, row, col))
}

// fx formats a ratio as "12.3x".
func fx(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0fx", v)
	case v >= 10:
		return fmt.Sprintf("%.1fx", v)
	default:
		return fmt.Sprintf("%.2fx", v)
	}
}

// fc formats a large count compactly ("49.6K", "1.8M").
func fc(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// shade maps a ratio to a log-scale heat character.
func shade(v float64) string {
	switch {
	case v >= 100:
		return "@"
	case v >= 10:
		return "#"
	case v >= 3:
		return "+"
	case v >= 1.5:
		return "."
	default:
		return " "
	}
}
