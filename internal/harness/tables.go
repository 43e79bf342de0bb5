package harness

import (
	"fmt"
	"sort"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/stats"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// table4Events are the counter columns of Table 4.
var table4Events = []perf.Event{
	perf.DTLBMisses, perf.WalkCycles, perf.StallCycles, perf.LLCMisses,
}

// table4Specs is Table 4's batch: all three mode comparisons draw from
// the full grid.
func table4Specs(int) []Spec { return MatrixSpecs() }

// table4 builds Table 4 from its batch: geometric-mean overheads and
// counter ratios across the suite for the three mode comparisons.
func table4(b *expBatch) (Grid, error) {
	return Grid{
		b.table4Block("Native Mode w.r.t Vanilla", suite.Native(), sgx.Native, sgx.Vanilla),
		b.table4Block("LibOS Mode w.r.t Vanilla", suite.All(), sgx.LibOS, sgx.Vanilla),
		b.table4Block("LibOS Mode w.r.t Native", suite.Native(), sgx.LibOS, sgx.Native),
	}, nil
}

// table4Block is the panel of one mode comparison (mode against base)
// over ws, per input setting: the geomean runtime overhead, the geomean
// counter ratios, and the mean raw EPC eviction count of mode (the
// paper reports the average raw value).
func (b *expBatch) table4Block(name string, ws []workloads.Workload, mode, base sgx.Mode) *Table {
	t := &Table{
		Name:   name,
		Title:  fmt.Sprintf("%s (%d workloads)", name, len(ws)),
		Header: []string{"", "Overhead", "dTLB misses", "Walk cycles", "Stall cycles", "LLC misses", "EPC evictions"},
		Gap:    true,
	}
	for _, size := range workloads.Sizes() {
		var ovh, evict []float64
		ratios := make([][]float64, len(table4Events))
		for _, w := range ws {
			nres, dres := b.cell(w, mode, size), b.cell(w, base, size)
			ovh = append(ovh, Overhead(nres, dres))
			// Counter ratios use whole-lifetime counters: the
			// paper's driver instrumentation sees LibOS startup
			// activity even though startup time is excluded.
			for i, e := range table4Events {
				rt := nres.TotalCounters.Ratio(dres.TotalCounters, e)
				if rt <= 0 {
					rt = 1
				}
				ratios[i] = append(ratios[i], rt)
			}
			evict = append(evict, float64(nres.TotalCounters.Get(perf.EPCEvictions)))
		}
		cells := []Cell{label(size.String()), ratio(stats.GeoMean(ovh))}
		for _, r := range ratios {
			cells = append(cells, ratio(stats.GeoMean(r)))
		}
		t.AddRow(append(cells, count(stats.Mean(evict)))...)
	}
	return t
}

// table2 builds Table 2: the workload inventory with the concrete
// Low/Medium/High settings for the runner's EPC size. It runs nothing.
func table2(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Table 2: workloads and input settings (scaled to the simulated EPC)",
		Header: []string{"Workload", "Property", "Modes", "Low", "Medium", "High"},
	}
	for _, w := range suite.All() {
		modes := "Vanilla, LibOS"
		if w.NativePort() {
			modes = "Vanilla, Native, LibOS"
		}
		cells := []Cell{label(w.Name()), label(w.Property()), label(modes)}
		for _, s := range workloads.Sizes() {
			cells = append(cells, label(knobString(w.DefaultParams(b.epcPages, s))))
		}
		t.AddRow(cells...)
	}
	return Grid{t}, nil
}

func knobString(p workloads.Params) string {
	names := make([]string, 0, len(p.Knobs))
	//sgxlint:ignore determinism collects keys only; the slice is sorted before any ordered use
	for n := range p.Knobs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", n, fc(float64(p.Knobs[n])))
	}
	if out == "" {
		out = "-"
	}
	return out
}

// table5Events are the predictors of Table 5.
var table5Events = []perf.Event{
	perf.WalkCycles, perf.StallCycles, perf.PageFaults,
	perf.DTLBMisses, perf.LLCMisses, perf.EPCEvictions,
}

// table5Seeds are the seeds Table 5 regresses over.
var table5Seeds = []int64{1, 2, 3}

// table5Mode is the mode Table 5 measures w in: Native when it has a
// port, LibOS otherwise.
func table5Mode(w workloads.Workload) sgx.Mode {
	if w.NativePort() {
		return sgx.Native
	}
	return sgx.LibOS
}

// table5Specs is Table 5's grid of runs: every suite workload at every
// size and seed.
func table5Specs(int) []Spec {
	var specs []Spec
	for _, w := range suite.All() {
		for _, size := range workloads.Sizes() {
			for _, seed := range table5Seeds {
				specs = append(specs, Spec{Workload: w, Mode: table5Mode(w), Size: size, Seed: seed})
			}
		}
	}
	return specs
}

// table5 builds Table 5 from its batch: per workload, a linear
// regression of run time on the six counters over its runs;
// coefficient magnitude ranks counter importance, and a '*' marks the
// most important counter (largest |coefficient|).
func table5(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Table 5: counter importance by linear regression (standardized coefficients)",
		Header: []string{"Workload", "Mode", "Walk cycles", "Stall cycles", "Page faults", "dTLB misses", "LLC misses", "EPC evictions"},
	}
	for _, w := range suite.All() {
		mode := table5Mode(w)
		var X [][]float64
		var y []float64
		for _, size := range workloads.Sizes() {
			for _, seed := range table5Seeds {
				res := b.seeded(w, mode, size, seed)
				row := make([]float64, len(table5Events))
				for i, e := range table5Events {
					row[i] = float64(res.Counters.Get(e))
				}
				X = append(X, row)
				y = append(y, float64(res.Cycles))
			}
		}
		beta, err := stats.LinReg(X, y)
		if err != nil {
			return nil, fmt.Errorf("harness: Table 5 regression for %s: %w", w.Name(), err)
		}
		var top perf.Event
		best := 0.0
		for i, e := range table5Events {
			if a := abs(beta[i]); a > best {
				best = a
				top = e
			}
		}
		cells := []Cell{label(w.Name()), label(mode.String())}
		for i, e := range table5Events {
			format := "%+.2f"
			if e == top {
				format += "*"
			}
			cells = append(cells, num(beta[i], format))
		}
		t.AddRow(cells...)
	}
	t.AddNote("'*' marks the counter with the largest |coefficient| (bold in the paper)")
	return Grid{t}, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
