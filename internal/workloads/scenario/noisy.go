package scenario

import (
	"fmt"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// noisy-neighbor: one foreground enclave runs a fixed request loop
// while co-resident neighbor enclaves thrash their own working sets.
// The neighbors' EPC traffic evicts the foreground's pages between its
// quanta, so the foreground pays load-backs it never would alone; the
// scenario reports the interference ratio against a solo baseline run
// on an identically configured machine, making the degradation a
// first-class, reproducible measurement.

func init() {
	Register(Descriptor{
		Name:     "noisy-neighbor",
		Property: "Foreground degraded by co-resident enclaves",
		Defaults: noisyDefaults,
		Validate: noisyValidate,
		Build:    buildNoisy,
	})
}

const (
	noisyDefaultNeighbors = 3
	noisyDefaultOps       = 48
)

func noisyDefaults(n int) []Enclave {
	if n <= 0 {
		n = 1 + noisyDefaultNeighbors
	}
	cast := make([]Enclave, n)
	cast[0] = Enclave{Role: "foreground", Size: workloads.Low}
	for i := 1; i < n; i++ {
		cast[i] = Enclave{Role: "neighbor", Size: workloads.Medium}
	}
	return cast
}

func noisyValidate(sp Spec) error {
	cast := sp.Cast()
	if len(cast) < 2 {
		return fmt.Errorf("scenario: noisy-neighbor needs a foreground and at least 1 neighbor, got %d enclaves", len(cast))
	}
	if cast[0].Role != "" && cast[0].Role != "foreground" {
		return fmt.Errorf("scenario: noisy-neighbor enclave 0 must have role \"foreground\", got %q", cast[0].Role)
	}
	for i := 1; i < len(cast); i++ {
		if cast[i].Role != "" && cast[i].Role != "neighbor" {
			return fmt.Errorf("scenario: noisy-neighbor enclave %d must have role \"neighbor\", got %q", i, cast[i].Role)
		}
	}
	return nil
}

// foregroundLoop is the measured request loop, shared by the contended
// and the solo-baseline run so the two are identical work.
func foregroundLoop(p *sgx.Proc, base uint64, pages, ops int) uint64 {
	t := p.T()
	var sum uint64
	for i := 0; i < ops; i++ {
		t.ECall(func() {
			sum ^= touchPages(p, base, pages, 1, uint64(i))
			t.Compute(1024)
		})
		p.Yield()
	}
	return sum
}

func buildNoisy(m *sgx.Machine, sp Spec, seed int64) (*Instance, error) {
	cast := sp.Cast()
	n := len(cast)
	epc := m.Config().EPCPages

	ops := cast[0].Ops
	if ops <= 0 {
		ops = noisyDefaultOps
	}

	envs := make([]*sgx.Env, n)
	bases := make([]uint64, n)
	ws := make([]int, n)
	for i, e := range cast {
		ws[i] = workingSetPages(epc, e.Size)
		env, base, err := launchEnclave(m, ws[i])
		if err != nil {
			return nil, fmt.Errorf("scenario: launching %s enclave %d: %w", cast[i].Role, i, err)
		}
		envs[i] = env
		bases[i] = base
	}

	var fgCycles, fgSum uint64
	fgDone := false

	programs := make([]sgx.Program, n)
	programs[0] = func(p *sgx.Proc) {
		start := p.T().Clock.Cycles()
		fgSum = foregroundLoop(p, bases[0], ws[0], ops)
		fgCycles = p.T().Clock.Cycles() - start
		fgDone = true
	}
	for i := 1; i < n; i++ {
		idx := i
		programs[i] = func(p *sgx.Proc) {
			t := p.T()
			// Thrash until the foreground finishes; each sweep evicts
			// whatever the foreground had resident.
			for salt := uint64(0); !fgDone; salt++ {
				t.ECall(func() { _ = touchPages(p, bases[idx], ws[idx], 1, salt) })
				p.Yield()
			}
		}
	}

	return &Instance{
		Envs:     envs,
		Programs: programs,
		Quantum:  sp.Quantum,
		Finish: func() (workloads.Output, error) {
			// Solo baseline: the identical foreground loop, alone on an
			// identically configured machine. Deterministic, so the
			// interference ratio is as reproducible as the run itself.
			soloCycles, soloSum, err := soloBaseline(m.Config(), ws[0], ops)
			if err != nil {
				return workloads.Output{}, fmt.Errorf("scenario: solo baseline: %w", err)
			}
			if soloSum != fgSum {
				return workloads.Output{}, fmt.Errorf("scenario: solo baseline diverged: %#x vs %#x", soloSum, fgSum)
			}
			ratio := float64(fgCycles)
			if soloCycles > 0 {
				ratio = float64(fgCycles) / float64(soloCycles)
			}
			return workloads.Output{
				Checksum: fgSum,
				Ops:      int64(ops),
				Extra: map[string]float64{
					"foreground_cycles":  float64(fgCycles),
					"solo_cycles":        float64(soloCycles),
					"interference_ratio": ratio,
					"neighbors":          float64(n - 1),
				},
			}, nil
		},
	}, nil
}

// soloBaseline runs the foreground loop alone on a fresh machine with
// the same configuration and returns its cycles and checksum.
func soloBaseline(cfg sgx.Config, pages, ops int) (uint64, uint64, error) {
	m := sgx.NewMachine(cfg)
	defer m.Release()
	env, base, err := launchEnclave(m, pages)
	if err != nil {
		return 0, 0, err
	}
	start := env.Elapsed()
	var sum uint64
	perr := sgx.Protect(func() {
		sgx.Interleave(cfg.Seed, 0, []*sgx.Env{env}, []sgx.Program{func(p *sgx.Proc) {
			sum = foregroundLoop(p, base, pages, ops)
		}})
	})
	if perr != nil {
		return 0, 0, perr
	}
	return env.Elapsed() - start, sum, nil
}
