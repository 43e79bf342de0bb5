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

// figure9 builds Figure 9 from its batch: the EPC activity timeline
// of B-Tree in Native and LibOS modes (Appendix D). The LibOS run
// front-loads a huge eviction storm while measuring its enclave, after
// which both modes converge to the same allocation/eviction pattern.
// Each timeline prints as about eight samples plus its end; a sample's
// row is named "<mode>/<phase>/<index in the timeline>", the last one
// "<mode>/end".
func figure9(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Figure 9: EPC activity timeline, B-Tree (cumulative counts)",
		Header: []string{"Mode", "Phase", "Time (ms)", "Allocs", "Evictions", "Load-backs"},
	}
	for i, mode := range []string{"Native", "LibOS"} {
		res := b.results[i]
		tl := res.Timeline
		if len(tl) == 0 {
			continue
		}
		sample := func(id, phase string, ev epc.TimelineEvent) {
			t.addRow(id, label(mode), label(phase), num(cycles.Micros(ev.Cycle)/1000, "%.2f"),
				count(ev.Allocs), count(ev.Evictions), count(ev.LoadBacks))
		}
		step := max(len(tl)/8, 1)
		for j := 0; j < len(tl); j += step {
			phase := "init"
			if tl[j].Cycle > res.StartupCycles {
				phase = "exec"
			}
			sample(fmt.Sprintf("%s/%s/%d", mode, phase, j), phase, tl[j])
		}
		sample(mode+"/end", "end", tl[len(tl)-1])
	}
	t.AddNote("LibOS front-loads ~enclave-size evictions during measurement, then converges to the Native pattern")
	return Grid{t}, nil
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

// figure10Phases are the Iozone phases Figure 10 compares.
var figure10Phases = []string{"write", "rewrite", "read", "reread"}

// figure10 builds Figure 10 from its batch: per configuration, each
// phase's cost (Vanilla in ms, the others as overhead against
// Vanilla) and the transition counts.
func figure10(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Figure 10: Iozone I/O with GrapheneSGX and protected files",
		Header: []string{"Config", "write", "rewrite", "read", "reread", "ECALLs", "OCALLs"},
	}
	base := b.results[0].Output.Extra
	for i, c := range figure10Configs {
		res := b.results[i]
		cells := []Cell{label(c.name)}
		for _, phase := range figure10Phases {
			v := res.Output.Extra[phase+"_cycles"]
			if i == 0 {
				cells = append(cells, num(cycles.Micros(uint64(v))/1000, "%.1fms"))
			} else {
				cells = append(cells, change(base[phase+"_cycles"], v))
			}
		}
		t.AddRow(append(cells, count(res.Counters.Get(perf.ECalls)), count(res.Counters.Get(perf.OCalls)))...)
	}
	t.AddNote("percentages are overhead vs Vanilla for the same phase")
	return Grid{t}, nil
}
