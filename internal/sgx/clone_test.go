package sgx

import (
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// TestEnvCloneContinuesIdentically drives a thrashing enclave, clones
// its environment, frozen or not, and runs the same continuation on
// the source and the clone: cycles, counters and the bytes read back
// must agree, and the clone must leave the source untouched.
func TestEnvCloneContinuesIdentically(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		freeze bool
	}{
		{Config{EPCPages: 64, Seed: 3}, false},
		{Config{EPCPages: 64, Seed: 3}, true},
		{Config{EPCPages: 64, Seed: 3, IntegrityTree: true}, false},
		{Config{EPCPages: 64, Seed: 3, IntegrityTree: true}, true},
	} {
		cfg := tc.cfg
		env := NewMachine(cfg).NewEnv(Native)
		if _, err := env.LaunchEnclave(4, 256); err != nil {
			t.Fatal(err)
		}
		base := env.MustAlloc(200*mem.PageSize, mem.PageSize)
		tr := env.Main
		tr.ECall(func() {
			for p := uint64(0); p < 200; p++ {
				tr.WriteU64(base+p*mem.PageSize+8, p)
			}
		})
		untrusted := env.AllocUntrusted(64, 8)
		tr.WriteU64(untrusted, 42)

		cont := func(env *Env) (uint64, perf.Snapshot, uint64) {
			tr := env.Main
			var sum uint64
			tr.ECall(func() {
				for p := uint64(0); p < 200; p += 3 {
					sum += tr.ReadU64(base + p*mem.PageSize + 8)
				}
			})
			sum += tr.ReadU64(untrusted)
			return tr.Clock.Cycles(), env.Snapshot(), sum
		}
		if tc.freeze {
			env.M.Freeze()
		}
		c := env.Clone()
		if c.M == env.M || c.Enclave == env.Enclave || c.Enclave.Measurement != env.Enclave.Measurement {
			t.Fatal("clone shares the source's machine or enclave, or lost its measurement")
		}
		before := env.Snapshot()
		cc, cs, csum := cont(c)
		if env.Snapshot() != before {
			t.Error("running the clone changed the source's counters")
		}
		sc, ss, ssum := cont(env)
		if cc != sc || cs != ss || csum != ssum {
			t.Errorf("cfg %+v, frozen %v: clone (cycles %d, sum %d) diverged from source (cycles %d, sum %d)",
				cfg, tc.freeze, cc, csum, sc, ssum)
		}
	}
}

func TestCloneRefusesObservedMachines(t *testing.T) {
	env := NewMachine(Config{EPCPages: 64}).NewEnv(Native)
	if _, err := env.LaunchEnclave(4, 64); err != nil {
		t.Fatal(err)
	}
	env.M.SetTracer(func(TraceEvent) {})
	defer func() {
		if recover() == nil {
			t.Error("clone of a traced machine did not panic")
		}
	}()
	env.Clone()
}
