package harness

import (
	"strings"
	"testing"
)

// TestExperimentSpecListsComplete runs each experiment's spec list on
// a fresh Runner, then renders it: the render must execute nothing
// more, so it reads only its own batch. multi runs outside RunAll and
// is skipped.
func TestExperimentSpecListsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment's spec list")
	}
	for _, e := range Experiments() {
		if e.ID == "multi" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			r := NewRunner(64)
			r.Seed = 1
			r.Jobs = 2
			if e.specs != nil {
				mustRunAll(t, r, e.specs(r.epcPages()))
			}
			before := r.Stats().Executed
			if _, err := e.Render(r); err != nil {
				t.Fatal(err)
			}
			if after := r.Stats().Executed; after != before {
				t.Errorf("render executed %d specs outside the experiment's spec list", after-before)
			}
		})
	}
}

// TestFigureSpecCount: a figure's count is the summed spec lists of
// its panels, and matches what RenderFigure executes.
func TestFigureSpecCount(t *testing.T) {
	r := NewRunner(64)
	r.Seed = 1
	for fig, want := range map[string]int{"t2": 0, "2": 6, "t4": 78, "t5": 90, "99": 0} {
		if got := FigureSpecCount(r, fig); got != want {
			t.Errorf("FigureSpecCount(%q) = %d, want %d", fig, got, want)
		}
	}
	panels := 0
	for _, id := range []string{"fig6a", "fig6bc", "fig6d"} {
		for _, e := range Experiments() {
			if e.ID == id {
				panels += len(e.specs(r.epcPages()))
			}
		}
	}
	if got := FigureSpecCount(r, "6"); got != panels || panels == 0 {
		t.Errorf("FigureSpecCount(\"6\") = %d, want the three panels' %d", got, panels)
	}
	if _, err := RenderFigure(r, "2"); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Stats().Executed, uint64(FigureSpecCount(r, "2")); got != want {
		t.Errorf("RenderFigure(2) executed %d specs, FigureSpecCount says %d", got, want)
	}
}

// TestCheckFigure: every registered figure label is accepted, and the
// error for an unknown one names them all.
func TestCheckFigure(t *testing.T) {
	err := CheckFigure("99")
	if err == nil {
		t.Fatal("unknown figure 99 accepted")
	}
	for _, e := range Experiments() {
		if e.Figure == "" {
			continue
		}
		if err := CheckFigure(e.Figure); err != nil {
			t.Errorf("registered figure %q rejected: %v", e.Figure, err)
		}
		if !strings.Contains(err.Error(), e.Figure) {
			t.Errorf("unknown-figure error %q does not name %q", err, e.Figure)
		}
	}
	if CheckFigure("") == nil {
		t.Error("empty figure label accepted")
	}
}
