package harness

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := Table{
		Title:  "T",
		Header: []string{"a", "bbbb"},
	}
	tab.AddRow(label("xxxxx"), label("y"))
	tab.AddNote("note %d", 7)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, underline, header, separator, row, note.
	if len(lines) != 6 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "=") {
		t.Error("missing title underline")
	}
	// Header and row columns align: the second column starts at the
	// same offset.
	hIdx := strings.Index(lines[2], "bbbb")
	rIdx := strings.Index(lines[4], "y")
	if hIdx != rIdx {
		t.Errorf("columns misaligned: header at %d, row at %d", hIdx, rIdx)
	}
	if !strings.Contains(lines[5], "note 7") {
		t.Error("note not rendered")
	}
}

// TestPanelBytes pins the renderer's layout of a panel with a text
// row label, numeric cells and a note to the bytes the same strings
// rendered as before cells carried their own format.
func TestPanelBytes(t *testing.T) {
	tab := Table{Title: "Figure X: one panel", Header: []string{"Workload", "Overhead", "Latency (us)"}}
	tab.AddRow(label("BTree"), ratio(2.345), num(12.34, "%.1f"))
	tab.AddRow(label("HashJoin"), ratio(13.04), num(0.5, "%.1f"))
	tab.AddNote("ratios are against %s", "Vanilla")
	want := "Figure X: one panel\n===================\n" +
		"Workload  Overhead  Latency (us)\n" +
		"--------  --------  ------------\n" +
		"BTree     2.35x     12.3        \n" +
		"HashJoin  13.0x     0.5         \n" +
		"  note: ratios are against Vanilla\n"
	if got := tab.String(); got != want {
		t.Errorf("panel renders as\n%q\nwant\n%q", got, want)
	}
	if v := (Grid{&tab}).Value("", "", "HashJoin", "Overhead"); v != 13.04 {
		t.Errorf("HashJoin/Overhead = %v, want 13.04", v)
	}
}

func TestFormatRatios(t *testing.T) {
	cases := map[float64]string{
		1.234:  "1.23x",
		12.34:  "12.3x",
		123.4:  "123x",
		0.5:    "0.50x",
		999.99: "1000x",
	}
	for in, want := range cases {
		if got := fx(in); got != want {
			t.Errorf("fx(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatCounts(t *testing.T) {
	cases := map[float64]string{
		5:       "5",
		999:     "999",
		1500:    "1.5K",
		49600:   "49.6K",
		1792000: "1.79M",
		2.5e9:   "2.50G",
	}
	for in, want := range cases {
		if got := fc(in); got != want {
			t.Errorf("fc(%v) = %q, want %q", in, got, want)
		}
	}
}
