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

// Figure9Data is the EPC activity timeline of B-Tree in Native and
// LibOS modes (Appendix D): the LibOS run front-loads a huge eviction
// storm while measuring its enclave, after which both modes converge
// to the same allocation/eviction pattern.
type Figure9Data struct {
	Native []epc.TimelineEvent
	LibOS  []epc.TimelineEvent
	// NativeStartup/LibOSStartup mark where initialization ends on
	// each timeline (cycles).
	NativeStartup uint64
	LibOSStartup  uint64
}

// figure9Specs is the timeline's batch: B-Tree at Medium in Native,
// then LibOS, mode. Sampling roughly every 64 EPC ops keeps the trace
// small while resolving the startup storm.
func figure9Specs(int) []Spec {
	w := byName("BTree")
	return []Spec{
		{Workload: w, Mode: sgx.Native, Size: workloads.Medium, Timeline: 64},
		{Workload: w, Mode: sgx.LibOS, Size: workloads.Medium, Timeline: 64},
	}
}

// figure9 builds Figure 9 from its batch.
func figure9(b *expBatch) (*Figure9Data, error) {
	nat, lib := b.results[0], b.results[1]
	return &Figure9Data{
		Native:        nat.Timeline,
		LibOS:         lib.Timeline,
		NativeStartup: nat.StartupCycles,
		LibOSStartup:  lib.StartupCycles,
	}, nil
}

// Render renders coarse timelines (10 buckets per mode).
func (d *Figure9Data) Render() string {
	t := Table{
		Title:  "Figure 9: EPC activity timeline, B-Tree (cumulative counts)",
		Header: []string{"Mode", "Phase", "Time (ms)", "Allocs", "Evictions", "Load-backs"},
	}
	addRows := func(mode string, tl []epc.TimelineEvent, startup uint64) {
		if len(tl) == 0 {
			return
		}
		step := len(tl) / 8
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(tl); i += step {
			ev := tl[i]
			phase := "init"
			if ev.Cycle > startup {
				phase = "exec"
			}
			t.AddRow(mode, phase,
				fmt.Sprintf("%.2f", cycles.Micros(ev.Cycle)/1000),
				fc(float64(ev.Allocs)), fc(float64(ev.Evictions)), fc(float64(ev.LoadBacks)))
		}
		last := tl[len(tl)-1]
		t.AddRow(mode, "end",
			fmt.Sprintf("%.2f", cycles.Micros(last.Cycle)/1000),
			fc(float64(last.Allocs)), fc(float64(last.Evictions)), fc(float64(last.LoadBacks)))
	}
	addRows("Native", d.Native, d.NativeStartup)
	addRows("LibOS", d.LibOS, d.LibOSStartup)
	t.AddNote("LibOS front-loads ~enclave-size evictions during measurement, then converges to the Native pattern")
	return t.String()
}

// Figure10Row is one Iozone configuration's per-phase costs.
type Figure10Row struct {
	Config string
	// PhaseCycles maps write/rewrite/read/reread to cycles.
	PhaseCycles map[string]float64
	ECalls      uint64
	OCalls      uint64
}

// figure10Configs are Appendix E's Iozone configurations: Vanilla,
// LibOS (plaintext shim) and LibOS with protected files.
var figure10Configs = []struct {
	name string
	mode sgx.Mode
	pf   bool
}{
	{"Vanilla", sgx.Vanilla, false},
	{"LibOS (S-G)", sgx.LibOS, false},
	{"LibOS+PF (S-P)", sgx.LibOS, true},
}

// figure10Specs runs Iozone at Medium in each configuration.
func figure10Specs(int) []Spec {
	w := suite.Iozone()
	specs := make([]Spec, len(figure10Configs))
	for i, c := range figure10Configs {
		specs[i] = Spec{Workload: w, Mode: c.mode, Size: workloads.Medium, ProtectedFiles: c.pf}
	}
	return specs
}

// figure10 builds Figure 10 from its batch.
func figure10(b *expBatch) (Figure10Data, error) {
	var out Figure10Data
	for i, c := range figure10Configs {
		res := b.results[i]
		row := Figure10Row{
			Config:      c.name,
			PhaseCycles: map[string]float64{},
			ECalls:      res.Counters.Get(perf.ECalls),
			OCalls:      res.Counters.Get(perf.OCalls),
		}
		for _, phase := range []string{"write", "rewrite", "read", "reread"} {
			row.PhaseCycles[phase] = res.Output.Extra[phase+"_cycles"]
		}
		out = append(out, row)
	}
	return out, nil
}

// Figure10Data is the I/O comparison, one row per configuration.
type Figure10Data []Figure10Row

// Render renders the I/O comparison, with overheads against Vanilla.
func (d Figure10Data) Render() string {
	t := Table{
		Title:  "Figure 10: Iozone I/O with GrapheneSGX and protected files",
		Header: []string{"Config", "write", "rewrite", "read", "reread", "ECALLs", "OCALLs"},
	}
	var base map[string]float64
	for i, row := range d {
		if i == 0 {
			base = row.PhaseCycles
		}
		cells := []string{row.Config}
		for _, phase := range []string{"write", "rewrite", "read", "reread"} {
			v := row.PhaseCycles[phase]
			if i == 0 {
				cells = append(cells, fmt.Sprintf("%.1fms", cycles.Micros(uint64(v))/1000))
			} else {
				cells = append(cells, fmt.Sprintf("%+.0f%%", 100*(v-base[phase])/base[phase]))
			}
		}
		cells = append(cells, fc(float64(row.ECalls)), fc(float64(row.OCalls)))
		t.AddRow(cells...)
	}
	t.AddNote("percentages are overhead vs Vanilla for the same phase")
	return t.String()
}
