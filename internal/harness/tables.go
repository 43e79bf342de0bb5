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

// Table4Block is one block of Table 4: a mode comparison aggregated
// over workloads, per input setting.
type Table4Block struct {
	// Label names the comparison ("Native Mode w.r.t Vanilla ...").
	Label string
	// Overhead[size] is the geomean runtime overhead.
	Overhead map[workloads.Size]float64
	// CounterRatio[size][event] is the geomean counter ratio.
	CounterRatio map[workloads.Size]map[perf.Event]float64
	// EPCEvictions[size] is the mean EPC eviction count of the
	// numerator mode (the paper reports the average raw value).
	EPCEvictions map[workloads.Size]float64
}

// Table4Data is the full Table 4.
type Table4Data struct {
	NativeVsVanilla Table4Block
	LibOSVsVanilla  Table4Block
	LibOSVsNative   Table4Block
}

// table4Specs is Table 4's batch: all three mode comparisons draw from
// the full grid.
func table4Specs(int) []Spec { return MatrixSpecs() }

// table4 builds Table 4 from its batch: geometric-mean overheads and
// counter ratios across the suite for the three mode comparisons.
func table4(b *expBatch) (*Table4Data, error) {
	return &Table4Data{
		NativeVsVanilla: b.table4Block("Native Mode w.r.t Vanilla (6 workloads)", suite.Native(), sgx.Native, sgx.Vanilla),
		LibOSVsVanilla:  b.table4Block("LibOS Mode w.r.t Vanilla (10 workloads)", suite.All(), sgx.LibOS, sgx.Vanilla),
		LibOSVsNative:   b.table4Block("LibOS Mode w.r.t Native (6 workloads)", suite.Native(), sgx.LibOS, sgx.Native),
	}, nil
}

func (b *expBatch) table4Block(label string, ws []workloads.Workload, num, den sgx.Mode) Table4Block {
	blk := Table4Block{
		Label:        label,
		Overhead:     map[workloads.Size]float64{},
		CounterRatio: map[workloads.Size]map[perf.Event]float64{},
		EPCEvictions: map[workloads.Size]float64{},
	}
	for _, size := range workloads.Sizes() {
		var ovh []float64
		ratios := map[perf.Event][]float64{}
		var evict []float64
		for _, w := range ws {
			nres, dres := b.cell(w, num, size), b.cell(w, den, size)
			ovh = append(ovh, Overhead(nres, dres))
			// Counter ratios use whole-lifetime counters: the
			// paper's driver instrumentation sees LibOS startup
			// activity even though startup time is excluded.
			for _, e := range table4Events {
				rt := nres.TotalCounters.Ratio(dres.TotalCounters, e)
				if rt <= 0 {
					rt = 1
				}
				ratios[e] = append(ratios[e], rt)
			}
			evict = append(evict, float64(nres.TotalCounters.Get(perf.EPCEvictions)))
		}
		blk.Overhead[size] = stats.GeoMean(ovh)
		blk.CounterRatio[size] = map[perf.Event]float64{}
		for _, e := range table4Events {
			blk.CounterRatio[size][e] = stats.GeoMean(ratios[e])
		}
		blk.EPCEvictions[size] = stats.Mean(evict)
	}
	return blk
}

// Render returns Table 4 in the paper's layout.
func (d *Table4Data) Render() string {
	out := ""
	for _, blk := range []Table4Block{d.NativeVsVanilla, d.LibOSVsVanilla, d.LibOSVsNative} {
		t := Table{
			Title:  blk.Label,
			Header: []string{"", "Overhead", "dTLB misses", "Walk cycles", "Stall cycles", "LLC misses", "EPC evictions"},
		}
		for _, size := range workloads.Sizes() {
			t.AddRow(size.String(),
				fx(blk.Overhead[size]),
				fx(blk.CounterRatio[size][perf.DTLBMisses]),
				fx(blk.CounterRatio[size][perf.WalkCycles]),
				fx(blk.CounterRatio[size][perf.StallCycles]),
				fx(blk.CounterRatio[size][perf.LLCMisses]),
				fc(blk.EPCEvictions[size]),
			)
		}
		out += t.String() + "\n"
	}
	return out
}

// Table2Row is one workload's entry in the settings table.
type Table2Row struct {
	Name     string
	Property string
	Modes    string
	Settings map[workloads.Size]workloads.Params
}

// Table2Data is Table 2, one row per suite workload.
type Table2Data []Table2Row

// table2 builds Table 2: the workload inventory with the concrete
// Low/Medium/High settings for the runner's EPC size. It runs nothing.
func table2(b *expBatch) (Table2Data, error) {
	var rows Table2Data
	for _, w := range suite.All() {
		modes := "Vanilla, LibOS"
		if w.NativePort() {
			modes = "Vanilla, Native, LibOS"
		}
		row := Table2Row{
			Name:     w.Name(),
			Property: w.Property(),
			Modes:    modes,
			Settings: map[workloads.Size]workloads.Params{},
		}
		for _, s := range workloads.Sizes() {
			row.Settings[s] = w.DefaultParams(b.epcPages, s)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Render renders the settings table.
func (d Table2Data) Render() string {
	t := Table{
		Title:  "Table 2: workloads and input settings (scaled to the simulated EPC)",
		Header: []string{"Workload", "Property", "Modes", "Low", "Medium", "High"},
	}
	for _, row := range d {
		cells := []string{row.Name, row.Property, row.Modes}
		for _, s := range workloads.Sizes() {
			cells = append(cells, knobString(row.Settings[s]))
		}
		t.AddRow(cells...)
	}
	return t.String()
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

// Table5Row is one workload's regression coefficients.
type Table5Row struct {
	Name  string
	Mode  sgx.Mode
	Coeff map[perf.Event]float64
	// Top is the most important counter (largest |coefficient|).
	Top perf.Event
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
// coefficient magnitude ranks counter importance.
func table5(b *expBatch) (Table5Data, error) {
	var rows Table5Data
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
		row := Table5Row{Name: w.Name(), Mode: mode, Coeff: map[perf.Event]float64{}}
		best := 0.0
		for i, e := range table5Events {
			row.Coeff[e] = beta[i]
			if a := abs(beta[i]); a > best {
				best = a
				row.Top = e
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Table5Data is Table 5, one row per suite workload.
type Table5Data []Table5Row

// Render renders the regression table, marking each workload's most
// important counter with a '*'.
func (d Table5Data) Render() string {
	t := Table{
		Title:  "Table 5: counter importance by linear regression (standardized coefficients)",
		Header: []string{"Workload", "Mode", "Walk cycles", "Stall cycles", "Page faults", "dTLB misses", "LLC misses", "EPC evictions"},
	}
	for _, row := range d {
		cells := []string{row.Name, row.Mode.String()}
		for _, e := range table5Events {
			mark := ""
			if e == row.Top {
				mark = "*"
			}
			cells = append(cells, fmt.Sprintf("%+.2f%s", row.Coeff[e], mark))
		}
		t.AddRow(cells...)
	}
	t.AddNote("'*' marks the counter with the largest |coefficient| (bold in the paper)")
	return t.String()
}
