package harness

import (
	"fmt"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// perSizeHeader is the header of a panel with one row per workload and
// one column per input size.
var perSizeHeader = []string{"Workload", "Low", "Medium", "High"}

// sizeRow is w's row of a per-size panel: its name, then cell(size)
// for each input size.
func sizeRow(w workloads.Workload, cell func(workloads.Size) Cell) []Cell {
	cells := []Cell{label(w.Name())}
	for _, size := range workloads.Sizes() {
		cells = append(cells, cell(size))
	}
	return cells
}

// micros is a latency cell, given in cycles and printed in µs.
func micros(latency float64) Cell { return num(cycles.Micros(uint64(latency)), "%.1f") }

// change is the cell for the relative change from base to v, printed
// as a signed percentage.
func change(base, v float64) Cell { return num(100*(v-base)/base, "%+.0f%%") }

// figure2Specs is the motivation experiment of §3.2.1. B-Tree is the
// EPC stressor: its footprint brackets the EPC and its random lookups
// surface the boundary crossing in every paging counter.
func figure2Specs(int) []Spec {
	return GridSpecs([]workloads.Workload{byName("BTree")}, []sgx.Mode{sgx.Native, sgx.Vanilla}, workloads.Sizes())
}

// figure2 builds Figure 2 from its batch: Native runtime and counters
// against Vanilla at the same input size, and Native EPC evictions
// against the Low setting.
func figure2(b *expBatch) (Grid, error) {
	w := byName("BTree")
	t := &Table{
		Title:  "Figure 2: crossing the EPC boundary (BTree, Native vs Vanilla)",
		Header: []string{"", "Overhead", "dTLB misses", "Walk cycles", "EPC evictions (vs Low)"},
	}
	lowEvict := float64(b.cell(w, sgx.Native, workloads.Low).Counters.Get(perf.EPCEvictions))
	if lowEvict == 0 {
		lowEvict = 1 // Low fits in the EPC; avoid dividing by zero
	}
	for _, size := range workloads.Sizes() {
		nat, van := b.cell(w, sgx.Native, size), b.cell(w, sgx.Vanilla, size)
		t.AddRow(label(size.String()),
			ratio(Overhead(nat, van)),
			ratio(nat.Counters.Ratio(van.Counters, perf.DTLBMisses)),
			ratio(nat.Counters.Ratio(van.Counters, perf.WalkCycles)),
			ratio(float64(nat.Counters.Get(perf.EPCEvictions))/lowEvict))
	}
	return Grid{t}, nil
}

// figure3Threads are Figure 3's concurrency levels.
var figure3Threads = []int{1, 2, 4, 8, 16}

// figure3Specs is §3.2.2: Lighttpd latency vs concurrent clients, SGX
// (LibOS) against Vanilla, as one Vanilla/LibOS spec pair per
// concurrency level.
func figure3Specs(epcPages int) []Spec {
	w := byName("Lighttpd")
	specs := make([]Spec, 0, 2*len(figure3Threads))
	for _, threads := range figure3Threads {
		params := w.DefaultParams(epcPages, workloads.Medium)
		params.Threads = threads
		specs = append(specs,
			Spec{Workload: w, Mode: sgx.Vanilla, Params: &params},
			Spec{Workload: w, Mode: sgx.LibOS, Params: &params})
	}
	return specs
}

// figure3 builds Figure 3 from its batch: one row per concurrency
// level.
func figure3(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Figure 3: Lighttpd latency vs concurrent clients (LibOS vs Vanilla)",
		Header: []string{"Threads", "Vanilla latency (us)", "SGX latency (us)", "Ratio"},
	}
	for i, threads := range figure3Threads {
		van, lib := b.results[2*i].Output.MeanLatency, b.results[2*i+1].Output.MeanLatency
		r := 0.0
		if van > 0 {
			r = lib / van
		}
		t.AddRow(num(float64(threads), "%.0f"), micros(van), micros(lib), ratio(r))
	}
	return Grid{t}, nil
}

// figure4Specs is §3.2.3: the library OS can help or hurt depending
// on the workload.
func figure4Specs(int) []Spec {
	return GridSpecs(suite.Native(), []sgx.Mode{sgx.LibOS, sgx.Native}, workloads.Sizes())
}

// figure4 builds Figure 4 from its batch: LibOS runtime / Native
// runtime per Native port and input size. Below 1.0 the library OS
// helps, above it hurts.
func figure4(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Figure 4: LibOS runtime relative to Native (<1 helps, >1 hurts)",
		Header: perSizeHeader,
	}
	for _, w := range suite.Native() {
		t.AddRow(sizeRow(w, func(size workloads.Size) Cell {
			return ratio(Overhead(b.cell(w, sgx.LibOS, size), b.cell(w, sgx.Native, size)))
		})...)
	}
	return Grid{t}, nil
}

// nativeVsVanillaSpecs runs the six ported workloads in Native and
// Vanilla mode at every size: Figures 5a, 5b and 8.
func nativeVsVanillaSpecs(int) []Spec {
	return GridSpecs(suite.Native(), []sgx.Mode{sgx.Native, sgx.Vanilla}, workloads.Sizes())
}

// figure5 builds Figures 5a (Native/Vanilla runtime) and 5b (raw
// Native EPC evictions) from their batch.
func figure5(b *expBatch) (Grid, error) {
	return b.overheadAndCount(suite.Native(), sgx.Native, "5a", "5b", perf.EPCEvictions, "EPC evictions"), nil
}

// overheadAndCount builds a pair of per-size panels over ws: mode's
// runtime overhead against Vanilla (panel over), then mode's raw count
// of ev (panel cnt, titled "Figure <cnt>: <mode>-mode <what>").
func (b *expBatch) overheadAndCount(ws []workloads.Workload, mode sgx.Mode, over, cnt string, ev perf.Event, what string) Grid {
	o := &Table{
		Name:   over,
		Title:  fmt.Sprintf("Figure %s: %s-mode runtime overhead vs Vanilla", over, mode),
		Header: perSizeHeader,
		Gap:    true,
	}
	c := &Table{
		Name:   cnt,
		Title:  fmt.Sprintf("Figure %s: %s-mode %s", cnt, mode, what),
		Header: perSizeHeader,
	}
	for _, w := range ws {
		o.AddRow(sizeRow(w, func(size workloads.Size) Cell {
			return ratio(Overhead(b.cell(w, mode, size), b.cell(w, sgx.Vanilla, size)))
		})...)
		c.AddRow(sizeRow(w, func(size workloads.Size) Cell {
			return count(b.cell(w, mode, size).Counters.Get(ev))
		})...)
	}
	return Grid{o, c}
}

// figure6aSpecs is the empty-workload characterization: one LibOS run
// of the empty workload.
func figure6aSpecs(int) []Spec { return []Spec{{Workload: suite.Empty(), Mode: sgx.LibOS}} }

// figure6a builds Figure 6a from its batch, the pure LibOS overhead of
// §5.4.1. The counters are the LibOS startup counters: everything the
// runtime did before handing control to the (empty) application.
func figure6a(b *expBatch) (Grid, error) {
	res := b.results[0]
	s := res.StartupCounters
	t := &Table{
		Title:  "Figure 6a: GrapheneSGX statistics for an empty workload",
		Header: []string{"Metric", "Value"},
	}
	t.AddRow(label("ECALLs"), count(s.Get(perf.ECalls)))
	t.AddRow(label("OCALLs"), count(s.Get(perf.OCalls)))
	t.AddRow(label("AEX exits"), count(s.Get(perf.AEXs)))
	t.AddRow(label("EPC evictions"), count(s.Get(perf.EPCEvictions)))
	t.AddRow(label("EPC load-backs"), count(s.Get(perf.EPCLoadBacks)))
	t.AddRow(label("Startup time"), num(cycles.Micros(res.StartupCycles)/1000, "%.1f ms"))
	t.AddNote("startup activity is excluded from workload run times (Appendix D)")
	return Grid{t}, nil
}

// figure6bcSpecs is Figures 6b and 6c: the full suite in LibOS and
// Vanilla mode at every size.
func figure6bcSpecs(int) []Spec {
	return GridSpecs(suite.All(), []sgx.Mode{sgx.LibOS, sgx.Vanilla}, workloads.Sizes())
}

// figure6bc builds Figures 6b (LibOS/Vanilla runtime) and 6c (raw
// LibOS load-backs) from their batch.
func figure6bc(b *expBatch) (Grid, error) {
	return b.overheadAndCount(suite.All(), sgx.LibOS, "6b", "6c", perf.EPCLoadBacks, "EPC page load-backs"), nil
}

// figure6dSpecs is §5.6: switchless calls avoid enclave exits and
// their TLB flushes. Lighttpd runs with default, then switchless,
// OCALLs.
func figure6dSpecs(int) []Spec {
	w := byName("Lighttpd")
	return []Spec{
		{Workload: w, Mode: sgx.LibOS, Size: workloads.Medium},
		{Workload: w, Mode: sgx.LibOS, Size: workloads.Medium, Switchless: true},
	}
}

// figure6d builds Figure 6d from its batch: default against switchless
// OCALLs on Lighttpd.
func figure6d(b *expBatch) (Grid, error) {
	def, sw := b.results[0], b.results[1]
	t := &Table{
		Title:  "Figure 6d: Lighttpd with switchless OCALLs (LibOS, Medium)",
		Header: []string{"", "Default", "Switchless", "Change"},
	}
	defLat, swLat := def.Output.MeanLatency, sw.Output.MeanLatency
	t.AddRow(label("Mean latency (us)"), micros(defLat), micros(swLat), change(defLat, swLat))
	defTLB, swTLB := float64(def.Counters.Get(perf.DTLBMisses)), float64(sw.Counters.Get(perf.DTLBMisses))
	t.AddRow(label("dTLB misses"), count(defTLB), count(swTLB), change(defTLB, swTLB))
	return Grid{t}, nil
}

// figure7Specs is Appendix A: the latencies of the core SGX driver
// operations, sampled from an EPC-thrashing run (HashJoin, High,
// Native).
func figure7Specs(int) []Spec {
	return []Spec{{Workload: byName("HashJoin"), Mode: sgx.Native, Size: workloads.High}}
}

// figure7 builds Figure 7 from its batch: one row per EPC driver
// operation.
func figure7(b *expBatch) (Grid, error) {
	res := b.results[0]
	t := &Table{
		Title:  "Figure 7: latency of core Intel SGX operations",
		Header: []string{"Operation", "Samples", "Mean latency (us)"},
	}
	for _, op := range []epc.Op{epc.OpAlloc, epc.OpEWB, epc.OpELDU, epc.OpFault} {
		st := res.OpStats[op]
		t.AddRow(label(op.String()), count(st.Samples), num(st.MeanMicros(), "%.2f"))
	}
	if ewb, eldu := res.OpStats[epc.OpEWB].MeanMicros(), res.OpStats[epc.OpELDU].MeanMicros(); eldu > 0 {
		t.AddNote("EWB/ELDU latency ratio: %.2f (paper: ~1.16)", ewb/eldu)
	}
	return Grid{t}, nil
}

// figure8Events are the heat-map columns.
var figure8Events = []perf.Event{
	perf.DTLBMisses, perf.WalkCycles, perf.StallCycles,
	perf.PageFaults, perf.LLCMisses, perf.EPCEvictions,
}

// figure8 builds the Appendix B heat map from its batch: for every
// workload with a Native port, each counter's Native-mode overhead
// relative to Vanilla, one panel per input size, with a log-scale
// shade character per cell.
func figure8(b *expBatch) (Grid, error) {
	var g Grid
	for _, size := range workloads.Sizes() {
		t := &Table{
			Name:   size.String(),
			Title:  fmt.Sprintf("Figure 8 (%s): Native-mode counter overheads vs Vanilla", size),
			Header: []string{"Workload"},
			Gap:    true,
		}
		for _, e := range figure8Events {
			t.Header = append(t.Header, e.String())
		}
		for _, w := range suite.Native() {
			nat, van := b.cell(w, sgx.Native, size), b.cell(w, sgx.Vanilla, size)
			cells := []Cell{label(w.Name())}
			for _, e := range figure8Events {
				cells = append(cells, num(nat.Counters.Ratio(van.Counters, e), fmtShade))
			}
			t.AddRow(cells...)
		}
		g = append(g, t)
	}
	return g, nil
}
