package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites the golden report instead of checking it. Use
// it only when a change moves a paper number on purpose, and record
// the cause in CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/report_epc64.golden from the current code")

const goldenReportPath = "testdata/report_epc64.golden"

// goldenReportIDs are the experiments the golden report covers: a fast
// subset of the paper's tables and figures, rendered in report order.
var goldenReportIDs = map[string]bool{"tab2": true, "fig2": true, "tab4": true, "fig6a": true, "fig7": true, "multi": true}

// renderGoldenReport renders the golden subset through one Runner at
// EPC 64 and seed 1, the way sgxreport does but without its timing
// lines. In report order fig6a runs on a clone of the boot template
// tab4 left idle, so the report also pins that clones taken across
// batches give the same numbers.
func renderGoldenReport(t *testing.T) []byte {
	t.Helper()
	r := NewRunner(64)
	r.Seed = 1
	var b bytes.Buffer
	for _, e := range Experiments() {
		if !goldenReportIDs[e.ID] {
			continue
		}
		before := r.Stats()
		out, err := e.Render(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if after := r.Stats(); e.ID == "fig6a" &&
			(after.TemplateBuilds != before.TemplateBuilds || after.ClonedBoots == before.ClonedBoots) {
			t.Errorf("fig6a built %d templates and cloned %d boots; want 0 built, its LibOS spec cloned from tab4's idle template",
				after.TemplateBuilds-before.TemplateBuilds, after.ClonedBoots-before.ClonedBoots)
		}
		fmt.Fprintf(&b, "[%s]\n%s\n", e.ID, out)
	}
	return b.Bytes()
}

// TestGoldenReport regenerates the golden report and diffs it against
// the committed file, so a change that moves any number in it fails
// here with the lines that moved.
func TestGoldenReport(t *testing.T) {
	got := renderGoldenReport(t)
	if *updateGolden {
		if err := os.WriteFile(goldenReportPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenReportPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var diff []string
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			diff = append(diff, fmt.Sprintf("line %d:\n  want %q\n   got %q", i+1, w, g))
		}
	}
	t.Errorf("report differs from %s in %d lines (rerun with -update only for an intended change):\n%s",
		goldenReportPath, len(diff), strings.Join(diff, "\n"))
}
