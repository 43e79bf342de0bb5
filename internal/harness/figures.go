package harness

import (
	"fmt"
	"strings"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Figure2Data reproduces Figure 2: stressing the EPC with an
// EPC-bound workload (HashJoin). Overheads are against Vanilla at the
// same input size; EPC evictions are against the Low setting.
type Figure2Data struct {
	// Overhead[size]: Native runtime / Vanilla runtime.
	Overhead map[workloads.Size]float64
	// DTLBRatio/WalkRatio[size]: Native counter / Vanilla counter.
	DTLBRatio map[workloads.Size]float64
	WalkRatio map[workloads.Size]float64
	// EvictRatio[size]: Native evictions at size / at Low.
	EvictRatio map[workloads.Size]float64
}

// figure2Specs is the motivation experiment of §3.2.1. B-Tree is the
// EPC stressor: its footprint brackets the EPC and its random lookups
// surface the boundary crossing in every paging counter.
func figure2Specs(int) []Spec {
	return GridSpecs([]workloads.Workload{byName("BTree")}, []sgx.Mode{sgx.Native, sgx.Vanilla}, workloads.Sizes())
}

// figure2 builds Figure 2 from its batch.
func figure2(b *expBatch) (*Figure2Data, error) {
	w := byName("BTree")
	d := &Figure2Data{
		Overhead:   map[workloads.Size]float64{},
		DTLBRatio:  map[workloads.Size]float64{},
		WalkRatio:  map[workloads.Size]float64{},
		EvictRatio: map[workloads.Size]float64{},
	}
	lowEvict := float64(b.cell(w, sgx.Native, workloads.Low).Counters.Get(perf.EPCEvictions))
	if lowEvict == 0 {
		lowEvict = 1 // Low fits in the EPC; avoid dividing by zero
	}
	for _, size := range workloads.Sizes() {
		nat, van := b.cell(w, sgx.Native, size), b.cell(w, sgx.Vanilla, size)
		d.Overhead[size] = Overhead(nat, van)
		d.DTLBRatio[size] = nat.Counters.Ratio(van.Counters, perf.DTLBMisses)
		d.WalkRatio[size] = nat.Counters.Ratio(van.Counters, perf.WalkCycles)
		d.EvictRatio[size] = float64(nat.Counters.Get(perf.EPCEvictions)) / lowEvict
	}
	return d, nil
}

// Render renders Figure 2 as a table.
func (d *Figure2Data) Render() string {
	t := Table{
		Title:  "Figure 2: crossing the EPC boundary (BTree, Native vs Vanilla)",
		Header: []string{"", "Overhead", "dTLB misses", "Walk cycles", "EPC evictions (vs Low)"},
	}
	for _, size := range workloads.Sizes() {
		t.AddRow(size.String(), fx(d.Overhead[size]), fx(d.DTLBRatio[size]), fx(d.WalkRatio[size]), fx(d.EvictRatio[size]))
	}
	return t.String()
}

// Figure3Point is Lighttpd latency at one concurrency level.
type Figure3Point struct {
	Threads        int
	VanillaLatency float64 // cycles
	SGXLatency     float64 // cycles (LibOS mode)
	Ratio          float64
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

// figure3 builds Figure 3 from its batch.
func figure3(b *expBatch) (Figure3Data, error) {
	var out Figure3Data
	for i, threads := range figure3Threads {
		van, lib := b.results[2*i], b.results[2*i+1]
		p := Figure3Point{
			Threads:        threads,
			VanillaLatency: van.Output.MeanLatency,
			SGXLatency:     lib.Output.MeanLatency,
		}
		if p.VanillaLatency > 0 {
			p.Ratio = p.SGXLatency / p.VanillaLatency
		}
		out = append(out, p)
	}
	return out, nil
}

// Figure3Data is the latency sweep, one point per concurrency level.
type Figure3Data []Figure3Point

// Render renders the latency sweep.
func (d Figure3Data) Render() string {
	t := Table{
		Title:  "Figure 3: Lighttpd latency vs concurrent clients (LibOS vs Vanilla)",
		Header: []string{"Threads", "Vanilla latency (us)", "SGX latency (us)", "Ratio"},
	}
	for _, p := range d {
		t.AddRow(fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%.1f", cycles.Micros(uint64(p.VanillaLatency))),
			fmt.Sprintf("%.1f", cycles.Micros(uint64(p.SGXLatency))),
			fx(p.Ratio))
	}
	return t.String()
}

// Figure4Row compares LibOS against Native for one workload.
type Figure4Row struct {
	Name string
	// Ratio is LibOS runtime / Native runtime at each input size:
	// below 1.0 the library OS helps, above it hurts.
	Ratio map[workloads.Size]float64
}

// figure4Specs is §3.2.3: the library OS can help or hurt depending
// on the workload.
func figure4Specs(int) []Spec {
	return GridSpecs(suite.Native(), []sgx.Mode{sgx.LibOS, sgx.Native}, workloads.Sizes())
}

// figure4 builds Figure 4 from its batch.
func figure4(b *expBatch) (Figure4Data, error) {
	var out Figure4Data
	for _, w := range suite.Native() {
		row := Figure4Row{Name: w.Name(), Ratio: map[workloads.Size]float64{}}
		for _, size := range workloads.Sizes() {
			row.Ratio[size] = Overhead(b.cell(w, sgx.LibOS, size), b.cell(w, sgx.Native, size))
		}
		out = append(out, row)
	}
	return out, nil
}

// Figure4Data is the LibOS-vs-Native comparison, one row per Native
// port.
type Figure4Data []Figure4Row

// Render renders the LibOS-vs-Native comparison.
func (d Figure4Data) Render() string {
	t := Table{
		Title:  "Figure 4: LibOS runtime relative to Native (<1 helps, >1 hurts)",
		Header: []string{"Workload", "Low", "Medium", "High"},
	}
	for _, row := range d {
		t.AddRow(row.Name, fx(row.Ratio[workloads.Low]), fx(row.Ratio[workloads.Medium]), fx(row.Ratio[workloads.High]))
	}
	return t.String()
}

// Figure5Row is one workload's Native-mode overheads and evictions.
type Figure5Row struct {
	Name string
	// Overhead[size] is Native/Vanilla runtime (Figure 5a).
	Overhead map[workloads.Size]float64
	// Evictions[size] is the raw Native eviction count (Figure 5b).
	Evictions map[workloads.Size]uint64
}

// nativeVsVanillaSpecs runs the six ported workloads in Native and
// Vanilla mode at every size: Figures 5a, 5b and 8.
func nativeVsVanillaSpecs(int) []Spec {
	return GridSpecs(suite.Native(), []sgx.Mode{sgx.Native, sgx.Vanilla}, workloads.Sizes())
}

// figure5 builds Figures 5a and 5b from their batch.
func figure5(b *expBatch) (Figure5Data, error) {
	var out Figure5Data
	for _, w := range suite.Native() {
		row := Figure5Row{
			Name:      w.Name(),
			Overhead:  map[workloads.Size]float64{},
			Evictions: map[workloads.Size]uint64{},
		}
		for _, size := range workloads.Sizes() {
			nat := b.cell(w, sgx.Native, size)
			row.Overhead[size] = Overhead(nat, b.cell(w, sgx.Vanilla, size))
			row.Evictions[size] = nat.Counters.Get(perf.EPCEvictions)
		}
		out = append(out, row)
	}
	return out, nil
}

// Figure5Data is Figures 5a and 5b, one row per Native port.
type Figure5Data []Figure5Row

// Render renders both panels.
func (d Figure5Data) Render() string {
	a := Table{
		Title:  "Figure 5a: Native-mode runtime overhead vs Vanilla",
		Header: []string{"Workload", "Low", "Medium", "High"},
	}
	b := Table{
		Title:  "Figure 5b: Native-mode EPC evictions",
		Header: []string{"Workload", "Low", "Medium", "High"},
	}
	for _, row := range d {
		a.AddRow(row.Name, fx(row.Overhead[workloads.Low]), fx(row.Overhead[workloads.Medium]), fx(row.Overhead[workloads.High]))
		b.AddRow(row.Name, fc(float64(row.Evictions[workloads.Low])), fc(float64(row.Evictions[workloads.Medium])), fc(float64(row.Evictions[workloads.High])))
	}
	return a.String() + "\n" + b.String()
}

// Figure6aData characterizes pure LibOS overhead with the empty
// workload (§5.4.1).
type Figure6aData struct {
	ECalls       uint64
	OCalls       uint64
	AEXs         uint64
	EPCEvictions uint64
	EPCLoadBacks uint64
	// StartupCycles is the initialization time (excluded from
	// workload timings).
	StartupCycles uint64
	// RunCycles is the measured time of the empty body.
	RunCycles uint64
}

// figure6aSpecs is the empty-workload characterization: one LibOS run
// of the empty workload.
func figure6aSpecs(int) []Spec { return []Spec{{Workload: suite.Empty(), Mode: sgx.LibOS}} }

// figure6a builds Figure 6a from its batch. The counters are the LibOS
// startup counters: everything the runtime did before handing control
// to the (empty) application.
func figure6a(b *expBatch) (*Figure6aData, error) {
	res := b.results[0]
	s := res.StartupCounters
	return &Figure6aData{
		ECalls:        s.Get(perf.ECalls),
		OCalls:        s.Get(perf.OCalls),
		AEXs:          s.Get(perf.AEXs),
		EPCEvictions:  s.Get(perf.EPCEvictions),
		EPCLoadBacks:  s.Get(perf.EPCLoadBacks),
		StartupCycles: res.StartupCycles,
		RunCycles:     res.Cycles,
	}, nil
}

// Render renders Figure 6a.
func (d *Figure6aData) Render() string {
	t := Table{
		Title:  "Figure 6a: GrapheneSGX statistics for an empty workload",
		Header: []string{"Metric", "Value"},
	}
	t.AddRow("ECALLs", fc(float64(d.ECalls)))
	t.AddRow("OCALLs", fc(float64(d.OCalls)))
	t.AddRow("AEX exits", fc(float64(d.AEXs)))
	t.AddRow("EPC evictions", fc(float64(d.EPCEvictions)))
	t.AddRow("EPC load-backs", fc(float64(d.EPCLoadBacks)))
	t.AddRow("Startup time", fmt.Sprintf("%.1f ms", cycles.Micros(d.StartupCycles)/1000))
	t.AddNote("startup activity is excluded from workload run times (Appendix D)")
	return t.String()
}

// Figure6bcRow is one workload's LibOS-mode overhead and load-backs.
type Figure6bcRow struct {
	Name string
	// Overhead[size] is LibOS/Vanilla runtime (Figure 6b).
	Overhead map[workloads.Size]float64
	// LoadBacks[size] is the raw load-back count (Figure 6c).
	LoadBacks map[workloads.Size]uint64
}

// figure6bcSpecs is Figures 6b and 6c: the full suite in LibOS and
// Vanilla mode at every size.
func figure6bcSpecs(int) []Spec {
	return GridSpecs(suite.All(), []sgx.Mode{sgx.LibOS, sgx.Vanilla}, workloads.Sizes())
}

// figure6bc builds Figures 6b and 6c from their batch.
func figure6bc(b *expBatch) (Figure6bcData, error) {
	var out Figure6bcData
	for _, w := range suite.All() {
		row := Figure6bcRow{
			Name:      w.Name(),
			Overhead:  map[workloads.Size]float64{},
			LoadBacks: map[workloads.Size]uint64{},
		}
		for _, size := range workloads.Sizes() {
			lib := b.cell(w, sgx.LibOS, size)
			row.Overhead[size] = Overhead(lib, b.cell(w, sgx.Vanilla, size))
			row.LoadBacks[size] = lib.Counters.Get(perf.EPCLoadBacks)
		}
		out = append(out, row)
	}
	return out, nil
}

// Figure6bcData is Figures 6b and 6c, one row per suite workload.
type Figure6bcData []Figure6bcRow

// Render renders both panels.
func (d Figure6bcData) Render() string {
	b := Table{
		Title:  "Figure 6b: LibOS-mode runtime overhead vs Vanilla",
		Header: []string{"Workload", "Low", "Medium", "High"},
	}
	c := Table{
		Title:  "Figure 6c: LibOS-mode EPC page load-backs",
		Header: []string{"Workload", "Low", "Medium", "High"},
	}
	for _, row := range d {
		b.AddRow(row.Name, fx(row.Overhead[workloads.Low]), fx(row.Overhead[workloads.Medium]), fx(row.Overhead[workloads.High]))
		c.AddRow(row.Name, fc(float64(row.LoadBacks[workloads.Low])), fc(float64(row.LoadBacks[workloads.Medium])), fc(float64(row.LoadBacks[workloads.High])))
	}
	return b.String() + "\n" + c.String()
}

// Figure6dData compares default and switchless OCALLs on Lighttpd.
type Figure6dData struct {
	DefaultLatency    float64
	SwitchlessLatency float64
	DefaultDTLB       uint64
	SwitchlessDTLB    uint64
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

// figure6d builds Figure 6d from its batch.
func figure6d(b *expBatch) (*Figure6dData, error) {
	def, sw := b.results[0], b.results[1]
	return &Figure6dData{
		DefaultLatency:    def.Output.MeanLatency,
		SwitchlessLatency: sw.Output.MeanLatency,
		DefaultDTLB:       def.Counters.Get(perf.DTLBMisses),
		SwitchlessDTLB:    sw.Counters.Get(perf.DTLBMisses),
	}, nil
}

// Render renders Figure 6d.
func (d *Figure6dData) Render() string {
	t := Table{
		Title:  "Figure 6d: Lighttpd with switchless OCALLs (LibOS, Medium)",
		Header: []string{"", "Default", "Switchless", "Change"},
	}
	t.AddRow("Mean latency (us)",
		fmt.Sprintf("%.1f", cycles.Micros(uint64(d.DefaultLatency))),
		fmt.Sprintf("%.1f", cycles.Micros(uint64(d.SwitchlessLatency))),
		fmt.Sprintf("%+.0f%%", 100*(d.SwitchlessLatency-d.DefaultLatency)/d.DefaultLatency))
	t.AddRow("dTLB misses",
		fc(float64(d.DefaultDTLB)), fc(float64(d.SwitchlessDTLB)),
		fmt.Sprintf("%+.0f%%", 100*(float64(d.SwitchlessDTLB)-float64(d.DefaultDTLB))/float64(d.DefaultDTLB)))
	return t.String()
}

// Figure7Row is one EPC driver operation's latency.
type Figure7Row struct {
	Op      epc.Op
	Samples uint64
	MeanUS  float64
}

// figure7Specs is Appendix A: the latencies of the core SGX driver
// operations, sampled from an EPC-thrashing run (HashJoin, High,
// Native).
func figure7Specs(int) []Spec {
	return []Spec{{Workload: byName("HashJoin"), Mode: sgx.Native, Size: workloads.High}}
}

// figure7 builds Figure 7 from its batch.
func figure7(b *expBatch) (Figure7Data, error) {
	res := b.results[0]
	var out Figure7Data
	for _, op := range []epc.Op{epc.OpAlloc, epc.OpEWB, epc.OpELDU, epc.OpFault} {
		st := res.OpStats[op]
		out = append(out, Figure7Row{Op: op, Samples: st.Samples, MeanUS: st.MeanMicros()})
	}
	return out, nil
}

// Figure7Data is the driver-operation latencies, one row per
// operation.
type Figure7Data []Figure7Row

// Render renders the operation latencies.
func (d Figure7Data) Render() string {
	t := Table{
		Title:  "Figure 7: latency of core Intel SGX operations",
		Header: []string{"Operation", "Samples", "Mean latency (us)"},
	}
	for _, row := range d {
		t.AddRow(row.Op.String(), fc(float64(row.Samples)), fmt.Sprintf("%.2f", row.MeanUS))
	}
	var ewb, eldu float64
	for _, row := range d {
		switch row.Op {
		case epc.OpEWB:
			ewb = row.MeanUS
		case epc.OpELDU:
			eldu = row.MeanUS
		}
	}
	if eldu > 0 {
		t.AddNote("EWB/ELDU latency ratio: %.2f (paper: ~1.16)", ewb/eldu)
	}
	return t.String()
}

// Figure8Data is the Appendix B heat map: for every workload with a
// Native port, each counter's Native-mode overhead relative to Vanilla
// at each input size.
type Figure8Data struct {
	Workloads []string
	Events    []perf.Event
	// Ratio[workload][size][event]
	Ratio map[string]map[workloads.Size]map[perf.Event]float64
}

// figure8Events are the heat-map columns.
var figure8Events = []perf.Event{
	perf.DTLBMisses, perf.WalkCycles, perf.StallCycles,
	perf.PageFaults, perf.LLCMisses, perf.EPCEvictions,
}

// figure8 builds the Native-mode counter heat map of Appendix B from
// its batch.
func figure8(b *expBatch) (*Figure8Data, error) {
	d := &Figure8Data{
		Events: figure8Events,
		Ratio:  map[string]map[workloads.Size]map[perf.Event]float64{},
	}
	for _, w := range suite.Native() {
		d.Workloads = append(d.Workloads, w.Name())
		d.Ratio[w.Name()] = map[workloads.Size]map[perf.Event]float64{}
		for _, size := range workloads.Sizes() {
			nat, van := b.cell(w, sgx.Native, size), b.cell(w, sgx.Vanilla, size)
			m := map[perf.Event]float64{}
			for _, e := range figure8Events {
				m[e] = nat.Counters.Ratio(van.Counters, e)
			}
			d.Ratio[w.Name()][size] = m
		}
	}
	return d, nil
}

// Render renders the heat map as per-size tables with a log-scale
// shade character per cell.
func (d *Figure8Data) Render() string {
	var b strings.Builder
	for _, size := range workloads.Sizes() {
		t := Table{
			Title:  fmt.Sprintf("Figure 8 (%s): Native-mode counter overheads vs Vanilla", size),
			Header: []string{"Workload"},
		}
		for _, e := range d.Events {
			t.Header = append(t.Header, e.String())
		}
		for _, name := range d.Workloads {
			cells := []string{name}
			for _, e := range d.Events {
				v := d.Ratio[name][size][e]
				cells = append(cells, fmt.Sprintf("%s %s", shade(v), fx(v)))
			}
			t.AddRow(cells...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
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
