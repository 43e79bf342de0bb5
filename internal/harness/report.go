package harness

import (
	"fmt"
	"slices"
	"strings"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Experiment is one regenerable table or figure of the paper's
// evaluation: an id ("fig2", "tab4"...), the spec list it runs, and
// the build step that turns that one batch's results into a grid.
type Experiment struct {
	// ID is the short name used by sgxgauge report -exp and the daemon's
	// /v1/figures endpoint.
	ID string
	// Figure is the paper's figure/table number ("2".."10" for
	// figures, "t2"/"t4"/"t5" for tables, "multi" for the §3.2.1
	// multi-enclave sweep), used to group experiments that share a
	// figure (6a/6bc/6d).
	Figure string
	// specs returns the runs the experiment reads, for a runner at
	// the given effective EPC size; nil when it reads none.
	specs func(epcPages int) []Spec
	// build makes the experiment's grid from its batch.
	build func(b *expBatch) (Grid, error)
}

// Experiments returns every regenerable experiment in report order.
// The list is rebuilt per call, so callers may not mutate shared
// state through it.
func Experiments() []Experiment {
	return []Experiment{
		{"tab2", "t2", nil, table2},
		{"fig2", "2", figure2Specs, figure2},
		{"fig3", "3", figure3Specs, figure3},
		{"fig4", "4", figure4Specs, figure4},
		{"tab4", "t4", table4Specs, table4},
		{"fig5", "5", nativeVsVanillaSpecs, figure5},
		{"fig6a", "6", figure6aSpecs, figure6a},
		{"fig6bc", "6", figure6bcSpecs, figure6bc},
		{"fig6d", "6", figure6dSpecs, figure6d},
		{"fig7", "7", figure7Specs, figure7},
		{"fig8", "8", nativeVsVanillaSpecs, figure8},
		{"tab5", "t5", table5Specs, table5},
		{"fig9", "9", figure9Specs, figure9},
		{"fig10", "10", figure10Specs, figure10},
		{"multi", "multi", multiSpecs, multiEnclave},
	}
}

// Render regenerates the experiment through r and renders its grid
// as text.
func (e Experiment) Render(r *Runner) (string, error) {
	g, err := e.grid(r)
	if err != nil {
		return "", err
	}
	return g.String(), nil
}

// grid regenerates the experiment through r: one RunAll over its spec
// list, the first failed spec (in list order) as the error, then the
// build step over that batch's results.
func (e Experiment) grid(r *Runner) (Grid, error) {
	b, err := e.run(r)
	if err != nil {
		return nil, err
	}
	g, err := e.build(b)
	for _, t := range g {
		t.Exp = e.ID
	}
	return g, err
}

// run executes the experiment's spec list as one batch.
func (e Experiment) run(r *Runner) (*expBatch, error) {
	b := &expBatch{epcPages: r.epcPages()}
	if e.specs != nil {
		b.specs = e.specs(b.epcPages)
	}
	b.results = r.runAll(b.specs)
	return b, firstFailure(b.results)
}

// firstFailure returns the first spec failure of a batch, in input
// order.
func firstFailure(results []*Result) error {
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// expBatch is what an experiment's build step reads: its spec list
// and the results of running it, in list order.
type expBatch struct {
	epcPages int
	specs    []Spec
	results  []*Result
}

// cell returns the result of the grid spec running w in mode at size.
// A cell outside the spec list is a bug in the experiment, so it
// panics.
func (b *expBatch) cell(w workloads.Workload, mode sgx.Mode, size workloads.Size) *Result {
	return b.seeded(w, mode, size, 0)
}

// seeded is cell for a spec that sets its own seed.
func (b *expBatch) seeded(w workloads.Workload, mode sgx.Mode, size workloads.Size, seed int64) *Result {
	for i, s := range b.specs {
		if s.Workload != nil && s.Workload.Name() == w.Name() && s.Mode == mode && s.Size == size && s.Seed == seed && s.Params == nil {
			return b.results[i]
		}
	}
	panic(fmt.Sprintf("harness: %s/%v/%v (seed %d) is not in the experiment's spec list", w.Name(), mode, size, seed))
}

// byName resolves one of the fixed workload names the experiments
// read; a miss is a bug, so it panics.
func byName(name string) workloads.Workload {
	w, err := suite.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// CheckFigure returns nil when fig labels a registered experiment, and
// otherwise an error naming every valid label in report order.
func CheckFigure(fig string) error {
	var valid []string
	for _, e := range Experiments() {
		if slices.Contains(valid, e.Figure) {
			continue
		}
		if e.Figure == fig {
			return nil
		}
		valid = append(valid, e.Figure)
	}
	return fmt.Errorf("harness: unknown figure %q (valid: %s)", fig, strings.Join(valid, ", "))
}

// FigureSpecCount returns how many specs RenderFigure(r, fig) runs:
// the summed spec lists of fig's experiments at r's EPC size (0 for a
// figure that runs none, or an unknown label).
func FigureSpecCount(r *Runner, fig string) int {
	n := 0
	for _, e := range Experiments() {
		if e.Figure == fig && e.specs != nil {
			n += len(e.specs(r.epcPages()))
		}
	}
	return n
}

// RenderFigure regenerates every experiment belonging to the paper
// figure/table labelled fig, concatenating multi-panel figures
// (6a/6bc/6d) in panel order. An unknown label yields CheckFigure's
// error.
func RenderFigure(r *Runner, fig string) (string, error) {
	if err := CheckFigure(fig); err != nil {
		return "", err
	}
	var panels []string
	for _, e := range Experiments() {
		if e.Figure != fig {
			continue
		}
		s, err := e.Render(r)
		if err != nil {
			return "", fmt.Errorf("harness: rendering %s: %w", e.ID, err)
		}
		panels = append(panels, s)
	}
	return strings.Join(panels, "\n"), nil
}
