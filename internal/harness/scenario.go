package harness

import (
	"fmt"

	"sgxgauge/internal/epc"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/scenario"
)

// NewScenarioSpec builds a runnable spec for the named scenario with
// its default cast of n enclaves (n <= 0 means the scenario's
// preferred count). The spec flows through RunAll, the cache, the
// store and the cluster exactly like a workload spec.
func NewScenarioSpec(name string, n int) (Spec, error) {
	sp, err := scenario.New(name, n)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Scenario: &sp, Mode: sgx.Native}, nil
}

// scenarioSchedSeed decorrelates the scheduler's quantum stream from
// the machine seed derived from the same spec seed.
const scenarioSchedSeed = 0x7363686564 // "sched"

// maxElapsed returns the furthest simulated clock across the
// scenario's environments — the wall-clock of the interleaved phase,
// since every enclave ran on the same time-shared machine.
func maxElapsed(envs []*sgx.Env) uint64 {
	var max uint64
	for _, env := range envs {
		if e := env.Elapsed(); e > max {
			max = e
		}
	}
	return max
}

// runScenario executes a multi-enclave scenario spec on a fresh
// machine: the engine-primitive sibling of the single-workload path in
// runOne. The scenario's enclaves are built in the startup window
// (like the LibOS boot the paper excludes), then their programs run
// interleaved under the deterministic quantum scheduler as the
// measured window. The Result carries the scenario's name and Output,
// so everything downstream — result wire encoding, the store, the
// cluster — handles it with zero special cases.
func runScenario(spec Spec) (*Result, error) {
	sp := spec.Scenario
	if spec.Workload != nil {
		return nil, fmt.Errorf("harness: spec has both a workload and a scenario")
	}
	if spec.Mode != sgx.Native {
		return nil, fmt.Errorf("harness: scenario specs run in Native mode, got %v", spec.Mode)
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	desc, ok := scenario.Lookup(sp.Name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown scenario %q (valid: %s)", sp.Name, workloads.ValidScenarioList())
	}

	m := sgx.NewMachine(machineConfig(spec))
	if spec.Hooks.OnMachine != nil {
		spec.Hooks.OnMachine(m)
	}

	// Build phase: launch every enclave of the cast. A fault here
	// (chaos ballooning away the EPC mid-build) fails the spec before
	// anything is measured, like a failed LibOS boot.
	var inst *scenario.Instance
	var buildErr error
	if perr := sgx.Protect(func() {
		inst, buildErr = desc.Build(m, *sp, spec.Seed)
	}); perr != nil {
		buildErr = perr
	}
	if buildErr != nil {
		return nil, fmt.Errorf("harness: building scenario %s: %w", sp.Name, buildErr)
	}
	if len(inst.Envs) == 0 || len(inst.Envs) != len(inst.Programs) {
		return nil, fmt.Errorf("harness: scenario %s built %d envs, %d programs", sp.Name, len(inst.Envs), len(inst.Programs))
	}
	if spec.Timeline > 0 {
		m.EPC.EnableTimeline(&inst.Envs[0].Main.Clock, spec.Timeline)
	}

	res := &Result{
		Name:            sp.Name,
		Mode:            sgx.Native,
		Params:          workloads.Params{Size: spec.Size, Threads: len(inst.Envs)},
		Attempts:        1,
		StartupCycles:   maxElapsed(inst.Envs),
		StartupCounters: m.Counters.Snapshot(),
	}

	// Measured window: all programs interleave on the shared machine
	// under the seed-derived quantum scheduler, then the scenario
	// collects its output. Faults (an enclave aborting under chaos,
	// the scheduler unwinding its co-residents) surface as this spec's
	// error with partial measurements attached.
	var out workloads.Output
	var runErr error
	if perr := sgx.Protect(func() {
		sgx.Interleave(uint64(spec.Seed)^scenarioSchedSeed, inst.Quantum, inst.Envs, inst.Programs)
		out, runErr = inst.Finish()
	}); perr != nil {
		runErr = perr
	}
	if runErr != nil {
		res.Err = fmt.Errorf("harness: running scenario %s: %w", sp.Name, runErr)
		res.Cycles = maxElapsed(inst.Envs) - res.StartupCycles
		res.TotalCounters = m.Counters.Snapshot()
		res.Counters = res.TotalCounters.Sub(res.StartupCounters)
		res.Timeline = m.EPC.Timeline()
		return res, res.Err
	}

	res.Output = out
	res.Cycles = maxElapsed(inst.Envs) - res.StartupCycles
	res.TotalCounters = m.Counters.Snapshot()
	res.Counters = res.TotalCounters.Sub(res.StartupCounters)
	res.Timeline = m.EPC.Timeline()
	res.OpStats = map[epc.Op]epc.OpStats{
		epc.OpAlloc: m.EPC.OpStatsFor(epc.OpAlloc),
		epc.OpEWB:   m.EPC.OpStatsFor(epc.OpEWB),
		epc.OpELDU:  m.EPC.OpStatsFor(epc.OpELDU),
		epc.OpFault: m.EPC.OpStatsFor(epc.OpFault),
	}
	return res, nil
}
