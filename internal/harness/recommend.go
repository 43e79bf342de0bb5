package harness

import (
	"fmt"
	"sort"
	"strings"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Component names an SGX cost source a researcher's proposal targets.
// Appendix C frames exactly this use case: "a generic approach for the
// developer to select correct benchmarks from SGXGauge as per the
// requirement".
type Component string

// The three overhead sources of §1/§4, plus the syscall interface.
const (
	ComponentEPC         Component = "epc"         // paging: EPC faults, evictions
	ComponentTransitions Component = "transitions" // ECALL/OCALL/AEX costs
	ComponentMEE         Component = "mee"         // encrypted-memory traffic
	ComponentSyscalls    Component = "syscalls"    // OS-interface interception
)

// Components lists the valid component names.
func Components() []Component {
	return []Component{ComponentEPC, ComponentTransitions, ComponentMEE, ComponentSyscalls}
}

// ParseComponent resolves a component name.
func ParseComponent(s string) (Component, error) {
	for _, c := range Components() {
		if string(c) == strings.ToLower(s) {
			return c, nil
		}
	}
	return "", fmt.Errorf("harness: unknown component %q (want epc, transitions, mee or syscalls)", s)
}

// Recommendation ranks one workload for a component.
type Recommendation struct {
	Name string
	// Intensity is the component-relevant stress score from a
	// LibOS-mode Medium run: total paging/MEE event counts for the
	// volume-driven components, and events per thousand memory
	// accesses for the interface components (so expensive events are
	// not self-discounting).
	Intensity float64
}

// Recommend ranks the ten suite workloads by how hard they exercise
// the given SGX component, measured (not hard-coded) from LibOS-mode
// Medium runs: a researcher optimizing that component should evaluate
// with the top-ranked workloads.
func (r *Runner) Recommend(c Component) ([]Recommendation, error) {
	ws := suite.All()
	results, err := r.RunAll(GridSpecs(ws, []sgx.Mode{sgx.LibOS}, []workloads.Size{workloads.Medium}))
	if err == nil {
		err = firstFailure(results)
	}
	if err != nil {
		return nil, err
	}
	var out []Recommendation
	for i, w := range ws {
		res := results[i]
		var events uint64
		switch c {
		case ComponentEPC:
			events = res.Counters.Get(perf.EPCEvictions) + res.Counters.Get(perf.EPCLoadBacks) +
				res.Counters.Get(perf.PageFaults)
		case ComponentTransitions:
			events = res.Counters.Get(perf.ECalls) + res.Counters.Get(perf.OCalls) +
				res.Counters.Get(perf.AEXs) + res.Counters.Get(perf.SwitchlessCalls)
		case ComponentMEE:
			events = res.Counters.Get(perf.LLCMisses)
		case ComponentSyscalls:
			events = res.Counters.Get(perf.Syscalls)
		default:
			return nil, fmt.Errorf("harness: unknown component %q", c)
		}
		intensity := float64(events)
		if c == ComponentTransitions || c == ComponentSyscalls {
			work := float64(res.Counters.Get(perf.Accesses)) / 1e3
			if work == 0 {
				work = 1
			}
			intensity /= work
		}
		out = append(out, Recommendation{Name: w.Name(), Intensity: intensity})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Intensity > out[j].Intensity })
	return out, nil
}

// RenderRecommendations renders the ranking.
func RenderRecommendations(c Component, recs []Recommendation) string {
	t := Table{
		Title:  fmt.Sprintf("Benchmark selection for the %q component (Appendix C)", c),
		Header: []string{"Rank", "Workload", "Intensity"},
	}
	for i, rec := range recs {
		t.AddRow(fmt.Sprintf("%d", i+1), rec.Name, fmt.Sprintf("%.1f", rec.Intensity))
	}
	t.AddNote("measured from LibOS-mode Medium runs; pick the top entries to stress this component")
	return t.String()
}
