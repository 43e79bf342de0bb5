// Package harness runs SGXGauge workloads under controlled conditions
// and regenerates every table and figure of the paper's evaluation
// (the per-experiment index lives in DESIGN.md).
//
// A Run boots a fresh machine, prepares the workload host-side, sets
// up the requested execution mode (launching an enclave for Native
// mode, booting the library OS for LibOS mode), and measures only the
// workload's run portion — GrapheneSGX-style startup is recorded
// separately and excluded, exactly as the paper does (Appendix D).
//
// Each run's machine is fully independent (LibOS specs that boot the
// same configuration run on clones of one booted template), so batches
// of specs run concurrently through RunAll on a worker pool; all
// simulated time comes from per-run seeded state, so a parallel batch
// is bit-for-bit identical to running the same specs serially.
package harness

import (
	"fmt"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/scenario"
)

// Spec describes one measured run.
type Spec struct {
	// Workload is the benchmark to run.
	Workload workloads.Workload
	// Mode is the execution mode.
	Mode sgx.Mode
	// Size is the input setting; ignored when Params is set.
	Size workloads.Size
	// EPCPages overrides the simulated EPC size (0 = default).
	EPCPages int
	// Seed drives all randomness (0 is a valid, fixed seed).
	Seed int64
	// Switchless enables switchless OCALLs (Figure 6d).
	Switchless bool
	// ProtectedFiles enables the LibOS protected file system
	// (Figure 10); LibOS mode only.
	ProtectedFiles bool
	// Params overrides the workload's DefaultParams when non-nil.
	Params *workloads.Params
	// Timeline enables EPC activity sampling (Figure 9) roughly
	// every Timeline EPC operations (0 = off).
	Timeline uint64
	// Machine, when non-nil, is the base machine configuration —
	// used by ablation studies to vary cost-model constants, cache
	// and TLB geometry, or enable the integrity tree. EPCPages, Seed
	// and Switchless from the Spec still apply on top.
	Machine *sgx.Config
	// Chaos, when non-nil and enabled, arms the adversarial-OS fault
	// injector on the spec's machine. Injection is a pure function of
	// the chaos seed and settings, so a chaotic run is as reproducible
	// as a clean one.
	Chaos *chaos.Config
	// Scenario, when non-nil, makes this a multi-enclave scenario
	// spec: Workload must be nil, Mode must be Native, and the run
	// interleaves the scenario's enclaves on one machine (see
	// runScenario). Scenario specs travel, cache and cluster exactly
	// like workload specs — the canonical encoding simply carries the
	// scenario envelope instead of a workload name.
	Scenario *scenario.Spec
	// Hooks carries the spec's non-serializable callbacks. Everything
	// else on a Spec round-trips through JSON (see MarshalJSON);
	// hooks deliberately do not, and a spec carrying one bypasses the
	// runner's result cache because a function value has no canonical
	// encoding to key on.
	Hooks Hooks
}

// WorkloadName returns the spec's registry name: the workload's, or
// the scenario's for multi-enclave specs. Empty for a zero spec.
func (s Spec) WorkloadName() string {
	if s.Scenario != nil {
		return s.Scenario.Name
	}
	if s.Workload != nil {
		return s.Workload.Name()
	}
	return ""
}

// Hooks is the non-serializable side of a Spec: callbacks that observe
// or instrument a run. Hooks never travel over the wire and never
// participate in the spec's canonical encoding or cache key.
type Hooks struct {
	// OnMachine, when non-nil, is invoked with the freshly booted
	// machine before any environment exists — the hook profilers use
	// to attach a tracer.
	OnMachine func(*sgx.Machine)
}

// empty reports whether the spec carries no hooks at all (such specs
// are safe to cache by canonical encoding).
func (h Hooks) empty() bool { return h.OnMachine == nil }

// Result is one measured run.
type Result struct {
	// Name, Mode and Params echo the effective configuration.
	Name   string
	Mode   sgx.Mode
	Params workloads.Params

	// Cycles is the simulated duration of the measured portion.
	Cycles uint64
	// Counters is the counter delta over the measured portion.
	Counters perf.Snapshot
	// TotalCounters is the counter state over the whole machine
	// lifetime, including LibOS startup. The paper's driver-level
	// instrumentation observes the whole process even though startup
	// *time* is excluded, which is why its LibOS rows report
	// startup-storm-sized EPC eviction counts (Table 4).
	TotalCounters perf.Snapshot
	// Output is the workload's functional result.
	Output workloads.Output

	// StartupCycles is the excluded setup time: enclave build and
	// (in LibOS mode) the library-OS initialization.
	StartupCycles uint64
	// StartupCounters is the counter delta over startup.
	StartupCounters perf.Snapshot
	// Timeline is the EPC activity trace when requested.
	Timeline []epc.TimelineEvent
	// OpStats reports the EPC driver-operation latencies observed
	// over the whole machine lifetime (Figure 7).
	OpStats map[epc.Op]epc.OpStats

	// Err is set when the spec failed or its run panicked — the
	// per-spec half of the Runner error convention. When the failure
	// is a machine fault (enclave abort, injected transient failure)
	// the Result still carries the cycles and counters accumulated up
	// to the fault, so degraded runs remain measurable.
	Err error
	// Attempts is the number of times RunAll executed the spec: 1
	// normally, more when transient injected faults were retried.
	Attempts int
}

// finish closes the measured window at simulated time now on machine
// m: the cycles since startup, the counters, the EPC timeline and the
// driver-operation latencies. err is the spec's failure, nil on
// success; a failed run keeps the state it reached before dying, so
// chaos reports can still be built. It returns the result and err.
func (r *Result) finish(m *sgx.Machine, now uint64, err error) (*Result, error) {
	r.Err = err
	r.Cycles = now - r.StartupCycles
	r.TotalCounters = m.Counters.Snapshot()
	r.Counters = r.TotalCounters.Sub(r.StartupCounters)
	r.Timeline = m.EPC.Timeline()
	r.OpStats = map[epc.Op]epc.OpStats{
		epc.OpAlloc: m.EPC.OpStatsFor(epc.OpAlloc),
		epc.OpEWB:   m.EPC.OpStatsFor(epc.OpEWB),
		epc.OpELDU:  m.EPC.OpStatsFor(epc.OpELDU),
		epc.OpFault: m.EPC.OpStatsFor(epc.OpFault),
	}
	return r, err
}

// machineConfig returns the machine configuration a spec runs on: the
// spec's base Machine with its EPC size, seed, switchless setting and
// chaos injector applied on top.
func machineConfig(spec Spec) sgx.Config {
	var cfg sgx.Config
	if spec.Machine != nil {
		cfg = *spec.Machine
	}
	cfg.EPCPages = spec.EPCPages
	cfg.Seed = uint64(spec.Seed) ^ 0x5067617567 // "gauge"
	cfg.Switchless = spec.Switchless
	cfg.Chaos = spec.Chaos
	return cfg
}

// libosManifest returns the manifest a LibOS spec boots with, trusting
// the given input files.
func libosManifest(spec Spec, files []string) libos.Manifest {
	return libos.Manifest{
		Binary:         spec.Workload.Name(),
		Files:          files,
		ProtectedFiles: spec.ProtectedFiles,
	}
}

// runOne executes one spec on a fresh machine — or, for a LibOS spec
// the boot cache serves, on a clone of its boot key's template (boots
// may be nil: boot in place) — and releases the page memory of the
// machine and the filesystem once the Result holds what it measured.
// cloned reports a cloned boot. It is the engine primitive under the
// Runner API: unlike Runner.Run it is uncached, retries nothing, and
// reports the spec's own failure through the error return
// (runWithRetry moves it into Result.Err).
func runOne(spec Spec, boots *bootCache) (res *Result, cloned bool, err error) {
	if spec.EPCPages < 0 {
		return nil, false, fmt.Errorf("harness: EPC size must not be negative, got %d pages", spec.EPCPages)
	}
	if spec.Scenario != nil {
		res, err = runScenario(spec)
		return res, false, err
	}
	if spec.Workload == nil {
		return nil, false, fmt.Errorf("harness: spec has no workload")
	}
	if spec.Mode == sgx.Native && !spec.Workload.NativePort() {
		return nil, false, fmt.Errorf("harness: %s has no Native-mode port", spec.Workload.Name())
	}

	cfg := machineConfig(spec)
	newMachine := func() *sgx.Machine {
		m := sgx.NewMachine(cfg)
		if spec.Hooks.OnMachine != nil {
			spec.Hooks.OnMachine(m)
		}
		return m
	}
	epcPages := cfg.WithDefaults().EPCPages

	params := spec.Workload.DefaultParams(epcPages, spec.Size)
	if spec.Params != nil {
		params = *spec.Params
	}

	rawFS := osal.NewFS()
	ctx := &workloads.Ctx{
		RawFS:  rawFS,
		Params: params,
		Seed:   spec.Seed,
	}
	// Host-side preparation happens before any environment exists,
	// so LibOS manifest processing sees the input files.
	if err := spec.Workload.Setup(ctx); err != nil {
		return nil, false, fmt.Errorf("harness: setup of %s: %w", spec.Workload.Name(), err)
	}

	var env *sgx.Env
	switch spec.Mode {
	case sgx.Vanilla:
		env = newMachine().NewEnv(sgx.Vanilla)
		ctx.FS = rawFS
	case sgx.Native:
		m := newMachine()
		env = m.NewEnv(sgx.Native)
		if spec.Timeline > 0 {
			m.EPC.EnableTimeline(&env.Main.Clock, spec.Timeline)
		}
		ctx.FS = rawFS
	case sgx.LibOS:
		// The manifest trusts every file present after setup.
		man := libosManifest(spec, rawFS.List())
		var inst *libos.Instance
		if inst, cloned, err = boots.boot(spec, newMachine, rawFS, man); err != nil {
			return nil, false, fmt.Errorf("harness: booting LibOS: %w", err)
		}
		env = inst.Env
		ctx.LibOS = inst
		ctx.FS = inst.FS()
	default:
		return nil, false, fmt.Errorf("harness: unknown mode %v", spec.Mode)
	}
	ctx.Env = env
	// Deferred, so they run after finish has read the machine. The
	// boot templates booted with no FS, so nothing else holds rawFS.
	defer env.M.Release()
	defer rawFS.Release()

	res = &Result{
		Name:            spec.Workload.Name(),
		Mode:            spec.Mode,
		Params:          params,
		Attempts:        1,
		StartupCycles:   env.Elapsed(),
		StartupCounters: env.Snapshot(),
	}

	// A Native-mode run launches its enclave inside the measured
	// window: SGX loads the entire declared enclave through the EPC
	// to verify it ("an enclave prior to its execution is loaded
	// completely in the EPC", §3.2.1), and unlike the one-time LibOS
	// boot the paper excludes (Appendix D), this launch is part of
	// running the ported application.
	if spec.Mode == sgx.Native {
		foot, err := spec.Workload.FootprintPages(params)
		if err != nil {
			return nil, false, fmt.Errorf("harness: sizing Native enclave: %w", err)
		}
		size := workloads.NativeEnclaveSize(foot)
		var launchErr error
		if perr := sgx.Protect(func() {
			_, launchErr = env.LaunchEnclaveReserve(size, workloads.NativeImagePages, size)
		}); perr != nil {
			launchErr = perr
		}
		if launchErr != nil {
			res, err = res.finish(env.M, env.Elapsed(), fmt.Errorf("harness: launching Native enclave: %w", launchErr))
			return res, false, err
		}
	}

	// The measured window runs under Protect: a machine fault
	// (enclave abort, injected transient failure) surfaces as this
	// spec's error with its partial measurements attached, while the
	// machine — and any sibling work — is unaffected.
	var out workloads.Output
	var runErr error
	if perr := sgx.Protect(func() {
		out, runErr = spec.Workload.Run(ctx)
	}); perr != nil {
		runErr = perr
	}
	if runErr != nil {
		runErr = fmt.Errorf("harness: running %s in %v mode: %w", spec.Workload.Name(), spec.Mode, runErr)
	} else {
		res.Output = out
	}
	res, err = res.finish(env.M, env.Elapsed(), runErr)
	return res, cloned, err
}

// Overhead returns the runtime overhead of res relative to base
// (res.Cycles / base.Cycles).
func Overhead(res, base *Result) float64 {
	if base.Cycles == 0 {
		return float64(res.Cycles)
	}
	return float64(res.Cycles) / float64(base.Cycles)
}
