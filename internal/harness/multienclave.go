package harness

import (
	"context"
	"fmt"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

// MultiEnclavePoint is one point of the multi-enclave interference
// experiment: the paper notes that "multiple instances of an enclave
// with a small memory footprint may also cause a number of EPC
// faults" because every instance is fully loaded into the shared EPC
// (§3.2.1). The experiment runs K identical enclaves, each with a
// footprint well below the EPC, interleaving their accesses; once the
// *sum* of footprints crosses the EPC, faults and run time explode
// even though no single instance exceeds it.
type MultiEnclavePoint struct {
	// Instances is K, the number of concurrently active enclaves.
	Instances int
	// CombinedFootprint is K x the per-instance footprint, in pages.
	CombinedFootprint int
	// CyclesPerInstance is the per-instance run time.
	CyclesPerInstance uint64
	// PageFaults and EPCEvictions are machine-wide totals.
	PageFaults   uint64
	EPCEvictions uint64
}

// MultiEnclave runs the interference sweep on one machine per point.
// Each instance's footprint is fixed at ~35% of the EPC, so one or two
// instances fit while four or more thrash. The points are independent
// machines, so they run concurrently, each holding one of the runner's
// worker slots like any other local simulation; results keep the
// input order.
func (r *Runner) MultiEnclave(counts []int) ([]MultiEnclavePoint, error) {
	epcPages := r.epcPages()
	footprint := epcPages * 35 / 100
	out := make([]MultiEnclavePoint, len(counts))
	errs := make([]error, len(counts))
	r.init()
	forEach(len(counts), r.Jobs, func(i int) {
		r.acquire(context.Background())
		defer r.release()
		defer func() {
			if rec := recover(); rec != nil {
				errs[i] = fmt.Errorf("harness: %d-enclave point panicked: %v", counts[i], rec)
			}
		}()
		out[i], errs[i] = runMultiEnclave(epcPages, footprint, counts[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runMultiEnclave boots one machine hosting k enclaves and interleaves
// strided sweeps over each enclave's heap for a fixed number of
// rounds, modelling k co-scheduled secure services.
func runMultiEnclave(epcPages, footprintPages, k int) (MultiEnclavePoint, error) {
	if k < 1 {
		return MultiEnclavePoint{}, fmt.Errorf("harness: need at least one enclave, got %d", k)
	}
	m := sgx.NewMachine(sgx.Config{EPCPages: epcPages})
	type instance struct {
		env  *sgx.Env
		heap uint64
	}
	insts := make([]instance, k)
	for i := range insts {
		env := m.NewEnv(sgx.Native)
		size := footprintPages + 8
		if _, err := env.LaunchEnclave(2, size); err != nil {
			return MultiEnclavePoint{}, fmt.Errorf("harness: enclave %d: %w", i, err)
		}
		heap, err := env.Alloc(uint64(footprintPages)*mem.PageSize, mem.PageSize)
		if err != nil {
			return MultiEnclavePoint{}, err
		}
		insts[i] = instance{env: env, heap: heap}
	}

	start := m.Counters.Snapshot()
	const rounds = 6
	const touchesPerRound = 4 // touches per page per round
	var total uint64
	for round := 0; round < rounds; round++ {
		for i := range insts {
			env := insts[i].env
			tr := env.Main
			before := tr.Clock.Cycles()
			tr.ECall(func() {
				for p := 0; p < footprintPages; p++ {
					base := insts[i].heap + uint64(p)*mem.PageSize
					for touch := 0; touch < touchesPerRound; touch++ {
						tr.WriteU64(base+uint64(touch)*512, uint64(round*p+touch))
					}
				}
			})
			total += tr.Clock.Cycles() - before
		}
	}
	delta := m.Counters.Snapshot().Sub(start)
	return MultiEnclavePoint{
		Instances:         k,
		CombinedFootprint: k * footprintPages,
		CyclesPerInstance: total / uint64(k),
		PageFaults:        delta.Get(perf.PageFaults),
		EPCEvictions:      delta.Get(perf.EPCEvictions),
	}, nil
}

// renderMultiEnclave is the multi experiment's render step. It runs
// the sweep itself, outside RunAll: its points are not specs.
func renderMultiEnclave(b *expBatch) (string, error) {
	points, err := b.r.MultiEnclave([]int{1, 2, 4, 8})
	if err != nil {
		return "", err
	}
	return RenderMultiEnclave(points, b.epcPages), nil
}

// RenderMultiEnclave renders the sweep.
func RenderMultiEnclave(points []MultiEnclavePoint, epcPages int) string {
	t := Table{
		Title:  "Multi-enclave interference (per-instance footprint ~35% of the EPC)",
		Header: []string{"Enclaves", "Combined footprint", "Cycles/instance", "Page faults", "EPC evictions"},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Instances),
			fmt.Sprintf("%d pages (%.0f%% EPC)", p.CombinedFootprint, 100*float64(p.CombinedFootprint)/float64(epcPages)),
			fc(float64(p.CyclesPerInstance)),
			fc(float64(p.PageFaults)),
			fc(float64(p.EPCEvictions)),
		)
	}
	t.AddNote("small enclaves interfere once their combined footprint crosses the EPC (paper §3.2.1)")
	return t.String()
}
