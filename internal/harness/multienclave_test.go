package harness

import (
	"strings"
	"testing"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/scenario"
)

// TestMultiEnclaveInterference pins the §3.2.1 shape: while the
// combined footprint fits, every page faults in once and nothing is
// evicted; once it crosses the EPC, faults exceed the footprint,
// evictions appear and each instance runs slower, though no single
// enclave exceeds the EPC.
func TestMultiEnclaveInterference(t *testing.T) {
	b := runExperiment(t, "multi")
	if len(b.results) != 4 {
		t.Fatalf("%d points", len(b.results))
	}
	fp := scenario.InterferencePages(b.epcPages)
	var crossed bool
	for i, res := range b.results {
		k := len(b.specs[i].Scenario.Enclaves)
		faults, evictions := res.Counters.Get(perf.PageFaults), res.Counters.Get(perf.EPCEvictions)
		if k*fp <= b.epcPages {
			if faults != uint64(k*fp) || evictions != 0 {
				t.Errorf("%d enclaves fit (%d of %d pages) but faulted %d and evicted %d", k, k*fp, b.epcPages, faults, evictions)
			}
			continue
		}
		crossed = true
		if faults <= uint64(k*fp) || evictions == 0 {
			t.Errorf("%d enclaves cross the EPC (%d of %d pages) but faulted only %d and evicted %d", k, k*fp, b.epcPages, faults, evictions)
		}
	}
	if !crossed {
		t.Fatal("no point crosses the EPC")
	}
	solo, last := b.results[0].Output.Extra["cycles_per_instance"], b.results[3].Output.Extra["cycles_per_instance"]
	if last < 2*solo {
		t.Errorf("per-instance time %.0f at 8 enclaves vs %.0f solo: no interference visible", last, solo)
	}
	g, err := multiEnclave(b)
	if err != nil {
		t.Fatal(err)
	}
	if out := g.String(); !strings.Contains(out, "Enclaves") || strings.Count(out, "% EPC)") != 4 {
		t.Errorf("render malformed:\n%s", out)
	}
}

// TestMultiEnclaveRejectsIgnoredFields: the interference scenario
// ignores roles, sizes, op counts and the quantum, so its Validate
// rejects each of them rather than let two keys name one run.
func TestMultiEnclaveRejectsIgnoredFields(t *testing.T) {
	for name, mutate := range map[string]func(*scenario.Spec){
		"role":    func(sp *scenario.Spec) { sp.Enclaves[1].Role = "node" },
		"size":    func(sp *scenario.Spec) { sp.Enclaves[0].Size = workloads.Medium },
		"ops":     func(sp *scenario.Spec) { sp.Enclaves[1].Ops = 3 },
		"quantum": func(sp *scenario.Spec) { sp.Quantum = 1024 },
	} {
		sp, err := scenario.New("interference", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("default cast rejected: %v", err)
		}
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, sp)
		}
	}
}
