package harness

import (
	"fmt"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/workloads/scenario"
)

// multiSpecs is the multi experiment's spec list: the interference
// scenario at K = 1, 2, 4 and 8 enclaves of ~35% of the EPC each, so
// one or two fit while four or more thrash. It measures the paper's
// §3.2.1 note that "multiple instances of an enclave with a small
// memory footprint may also cause a number of EPC faults".
func multiSpecs(int) []Spec {
	var specs []Spec
	for _, k := range []int{1, 2, 4, 8} {
		spec, err := NewScenarioSpec("interference", k)
		if err != nil {
			panic(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// multiEnclave builds the multi experiment from its batch. The page
// faults and evictions are the measured window's, which starts once
// every enclave is built.
func multiEnclave(b *expBatch) (Grid, error) {
	t := &Table{
		Title:  "Multi-enclave interference (per-instance footprint ~35% of the EPC)",
		Header: []string{"Enclaves", "Combined footprint", "Cycles/instance", "Page faults", "EPC evictions"},
	}
	for i, res := range b.results {
		k := len(b.specs[i].Scenario.Enclaves)
		combined := k * scenario.InterferencePages(b.epcPages)
		t.AddRow(
			num(float64(k), "%.0f"),
			label(fmt.Sprintf("%d pages (%.0f%% EPC)", combined, 100*float64(combined)/float64(b.epcPages))),
			count(res.Output.Extra["cycles_per_instance"]),
			count(res.Counters.Get(perf.PageFaults)),
			count(res.Counters.Get(perf.EPCEvictions)),
		)
	}
	t.AddNote("small enclaves interfere once their combined footprint crosses the EPC (paper §3.2.1)")
	return Grid{t}, nil
}
