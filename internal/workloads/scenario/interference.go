package scenario

import (
	"fmt"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// interference: K identical enclaves at 35% of the EPC each. One or
// two fit; past that every instance faults though none exceeds the
// EPC alone (paper §3.2.1). Program 0 drives every enclave through
// fixed rounds, one ECALL per enclave per round, and never yields; the
// others are empty. Per-enclave programs that yield would let
// Interleave reorder the rounds by clock once the EPC thrashes.

func init() {
	Register(Descriptor{
		Name:     "interference",
		Property: "K small enclaves whose combined footprint crosses the EPC",
		Defaults: interferenceDefaults,
		Validate: interferenceValidate,
		Build:    buildInterference,
	})
}

const (
	interferenceRounds  = 6
	interferenceTouches = 4 // writes per page per round, 512 bytes apart
)

// InterferencePages is the per-enclave footprint of the interference
// scenario on an EPC of epcPages pages: 35% of it.
func InterferencePages(epcPages int) int { return epcPages * 35 / 100 }

func interferenceDefaults(n int) []Enclave {
	if n <= 0 {
		n = 4
	}
	cast := make([]Enclave, n)
	for i := range cast {
		cast[i] = Enclave{Role: "instance"}
	}
	return cast
}

// interferenceValidate rejects every field the scenario ignores, so
// two different spec keys never name the same run.
func interferenceValidate(sp Spec) error {
	if sp.Quantum != 0 {
		return fmt.Errorf("scenario: interference takes no quantum, got %d", sp.Quantum)
	}
	for i, e := range sp.Cast() {
		if e.Role != "" && e.Role != "instance" {
			return fmt.Errorf("scenario: interference enclave %d must have role \"instance\", got %q", i, e.Role)
		}
		if e.Size != workloads.Low || e.Ops != 0 {
			return fmt.Errorf("scenario: interference enclave %d takes no size or ops (its footprint is 35%% of the EPC)", i)
		}
	}
	return nil
}

func buildInterference(m *sgx.Machine, sp Spec, _ int64) (*Instance, error) {
	k := len(sp.Cast())
	fp := InterferencePages(m.Config().EPCPages)
	envs := make([]*sgx.Env, k)
	heaps := make([]uint64, k)
	for i := range envs {
		env := m.NewEnv(sgx.Native)
		if _, err := env.LaunchEnclave(2, fp+8); err != nil {
			return nil, fmt.Errorf("scenario: launching interference enclave %d: %w", i, err)
		}
		heap, err := env.Alloc(uint64(fp)*pageSize, pageSize)
		if err != nil {
			return nil, fmt.Errorf("scenario: interference enclave %d heap: %w", i, err)
		}
		envs[i], heaps[i] = env, heap
	}

	// total sums every ECALL's clock delta across all enclaves.
	var total uint64
	programs := make([]sgx.Program, k)
	programs[0] = func(*sgx.Proc) {
		for round := 0; round < interferenceRounds; round++ {
			for i, env := range envs {
				t := env.Main
				before := t.Clock.Cycles()
				t.ECall(func() {
					for p := 0; p < fp; p++ {
						base := heaps[i] + uint64(p)*pageSize
						for touch := 0; touch < interferenceTouches; touch++ {
							t.WriteU64(base+uint64(touch)*512, uint64(round*p+touch))
						}
					}
				})
				total += t.Clock.Cycles() - before
			}
		}
	}
	for i := 1; i < k; i++ {
		programs[i] = func(*sgx.Proc) {}
	}

	return &Instance{
		Envs:     envs,
		Programs: programs,
		Finish: func() (workloads.Output, error) {
			return workloads.Output{
				Ops:   int64(interferenceRounds * k),
				Extra: map[string]float64{"cycles_per_instance": float64(total / uint64(k))},
			}, nil
		},
	}, nil
}
