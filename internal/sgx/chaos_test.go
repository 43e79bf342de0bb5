package sgx

import (
	"errors"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// Integration tests for the adversarial-OS fault injector wired into
// the machine: each fault class surfaces as counters plus (at worst) a
// typed Fault caught by Protect — never a process panic.

func TestChaosAEXStormCountsAndFlushes(t *testing.T) {
	m := NewMachine(Config{
		EPCPages: 64,
		Chaos:    &chaos.Config{Seed: 1, AEXStorm: true, AEXRate: 1},
	})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 64); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	addr := env.MustAlloc(mem.PageSize, mem.PageSize)

	err := Protect(func() {
		tr.ECall(func() {
			for i := 0; i < 100; i++ {
				tr.WriteU64(addr+uint64(i)*8, uint64(i))
			}
		})
	})
	if err != nil {
		t.Fatalf("AEX storm faulted the run: %v", err)
	}
	injected := m.Counters.Get(perf.InjectedAEXs)
	if injected == 0 {
		t.Fatal("no AEXs injected at rate 1")
	}
	if total := m.Counters.Get(perf.AEXs); total < injected {
		t.Fatalf("AEXs (%d) < InjectedAEXs (%d)", total, injected)
	}
	// Every injected AEX flushes the TLB, so the dTLB can never
	// carry a hit across two in-enclave accesses.
	if m.Counters.Get(perf.TLBFlushes) < injected {
		t.Fatalf("TLBFlushes (%d) < injected AEXs (%d)",
			m.Counters.Get(perf.TLBFlushes), injected)
	}
}

func TestChaosBalloonResizesAndPreservesData(t *testing.T) {
	m := NewMachine(Config{
		EPCPages: 128,
		Chaos: &chaos.Config{
			Seed: 2, EPCBalloon: true, BalloonRate: 0.05,
			BalloonMinFrac: 0.3,
		},
	})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 256); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	const pages = 96
	base := env.MustAlloc(pages*mem.PageSize, mem.PageSize)

	err := Protect(func() {
		for p := uint64(0); p < pages; p++ {
			tr.WriteU64(base+p*mem.PageSize, p^0xdead)
		}
		for p := uint64(0); p < pages; p++ {
			if got := tr.ReadU64(base + p*mem.PageSize); got != p^0xdead {
				t.Errorf("page %d read %#x, want %#x", p, got, p^0xdead)
			}
		}
	})
	if err != nil {
		t.Fatalf("balloon run faulted: %v", err)
	}
	if m.Counters.Get(perf.EPCResizes) == 0 {
		t.Fatal("no EPC resizes at balloon rate 0.05 over ~1500 accesses")
	}
	if m.EPC.Capacity() > 128 {
		t.Fatalf("ballooned capacity %d exceeds configured 128", m.EPC.Capacity())
	}
}

func TestChaosTamperAbortsVictimOnly(t *testing.T) {
	m := NewMachine(Config{
		EPCPages: 64,
		Chaos:    &chaos.Config{Seed: 3, MemTamper: true, TamperRate: 1},
	})
	victimEnv := m.NewEnv(Native)
	if _, err := victimEnv.LaunchEnclave(1, 256); err != nil {
		t.Fatal(err)
	}
	sibling := m.NewEnv(Native)
	if _, err := sibling.LaunchEnclave(1, 32); err != nil {
		t.Fatal(err)
	}
	sibAddr := sibling.MustAlloc(mem.PageSize, mem.PageSize)
	sibling.Main.WriteU64(sibAddr, 99)

	// Thrash a working set larger than the EPC; every eviction is
	// tampered, so a load-back must eventually hit damage.
	tr := victimEnv.Main
	const pages = 128
	base := victimEnv.MustAlloc(pages*mem.PageSize, mem.PageSize)
	err := Protect(func() {
		for round := 0; round < 4; round++ {
			for p := uint64(0); p < pages; p++ {
				tr.WriteU64(base+p*mem.PageSize, p)
			}
		}
	})
	if err == nil {
		t.Fatal("full-rate tampering never tripped an integrity failure")
	}
	if !IsAbort(err) {
		t.Fatalf("err = %v, want AbortError", err)
	}
	if !victimEnv.Enclave.Aborted() {
		t.Fatal("victim enclave not marked aborted")
	}
	if m.Counters.Get(perf.IntegrityAborts) == 0 {
		t.Fatal("IntegrityAborts counter not incremented")
	}

	// Sibling enclave on the same machine still works. Its evicted
	// pages are tampered too, so only its still-resident page is
	// guaranteed readable; that is enough to show the machine and the
	// sibling survived the victim's abort.
	if sibling.Enclave.Aborted() {
		t.Fatal("sibling enclave aborted")
	}
	if got := m.EPC.Resident(); got == 0 {
		t.Fatal("EPC empty after abort")
	}
}

func TestChaosTransitionFaultIsTransient(t *testing.T) {
	m := NewMachine(Config{
		EPCPages: 64,
		Chaos:    &chaos.Config{Seed: 4, TransitionFault: true, TransitionRate: 1},
	})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 64); err != nil {
		t.Fatal(err)
	}
	ran := false
	err := Protect(func() { env.Main.ECall(func() { ran = true }) })
	if err == nil {
		t.Fatal("ECALL succeeded at transition-fault rate 1")
	}
	if !IsTransient(err) {
		t.Fatalf("err = %v, want TransientError", err)
	}
	if IsAbort(err) {
		t.Fatalf("transition fault misclassified as abort: %v", err)
	}
	if ran {
		t.Fatal("ECALL body ran despite the injected entry failure")
	}
	if env.Enclave.Aborted() {
		t.Fatal("transient fault aborted the enclave")
	}
	if m.Counters.Get(perf.TransitionFaults) == 0 {
		t.Fatal("TransitionFaults counter not incremented")
	}
	// The enclave is still usable once the fault clears — and a
	// retried attempt uses a reseeded injector, so the same fault
	// need not recur.
	cfg := chaos.Config{Seed: 4, TransitionFault: true, TransitionRate: 0.5}
	succeeded := false
	for attempt := 0; attempt < 20 && !succeeded; attempt++ {
		ac := cfg.WithAttempt(attempt)
		rm := NewMachine(Config{EPCPages: 64, Chaos: &ac})
		renv := rm.NewEnv(Native)
		if _, err := renv.LaunchEnclave(1, 64); err != nil {
			t.Fatal(err)
		}
		if Protect(func() { renv.Main.ECall(func() {}) }) == nil {
			succeeded = true
		}
	}
	if !succeeded {
		t.Fatal("no retry attempt succeeded at rate 0.5 in 20 reseeded tries")
	}
}

// chaosRun drives one deterministic mixed workload under full chaos
// and returns the final counter snapshot and main-thread cycles.
func chaosRun(t *testing.T, seed uint64) (perf.Snapshot, uint64) {
	t.Helper()
	cc := chaos.Config{Seed: seed, Rate: 0.02}.EnableAll()
	m := NewMachine(Config{EPCPages: 64, Chaos: &cc})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 256); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	const pages = 96
	base := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	for round := 0; round < 3; round++ {
		err := Protect(func() {
			tr.ECall(func() {
				for p := uint64(0); p < pages; p++ {
					tr.WriteU64(base+p*mem.PageSize, p)
				}
			})
		})
		// Faults (transient or abort) are part of the schedule; a
		// deterministic run reproduces them identically, so just
		// keep going.
		_ = err
	}
	return m.Counters.Snapshot(), tr.Clock.Cycles()
}

func TestChaosSameSeedByteIdentical(t *testing.T) {
	s1, c1 := chaosRun(t, 12345)
	s2, c2 := chaosRun(t, 12345)
	if s1 != s2 {
		t.Fatalf("same seed produced different counter snapshots:\n%v\n%v", s1, s2)
	}
	if c1 != c2 {
		t.Fatalf("same seed produced different cycle counts: %d vs %d", c1, c2)
	}
	s3, _ := chaosRun(t, 54321)
	if s1 == s3 {
		t.Fatal("different seeds produced identical snapshots (injector inert?)")
	}
}

// tamperVictim launches a chaos machine whose injector never fires on
// its own (tests mount attacks through tamper directly) and returns
// its thread and one enclave page.
func tamperVictim(t *testing.T) (*Machine, *Env, uint64) {
	t.Helper()
	m := NewMachine(Config{EPCPages: 32, Chaos: &chaos.Config{Seed: 5, MemTamper: true, TamperRate: 1e-300}})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 64); err != nil {
		t.Fatal(err)
	}
	return m, env, env.MustAlloc(mem.PageSize, mem.PageSize)
}

// evictSealed forces addr's page out and returns its stored seal.
func evictSealed(t *testing.T, m *Machine, env *Env, addr uint64) *mem.SealedPage {
	t.Helper()
	if !m.ForceEvict(env.Main, addr) {
		t.Fatal("page was not resident")
	}
	sp := m.Backing.Get(env.Enclave.PageID(addr))
	if sp == nil {
		t.Fatal("evicted page missing from backing store")
	}
	return sp
}

// TestChaosTamperCompactPages mounts each injector attack on a page
// evicted all zero, which the store keeps without ciphertext: every
// attack must still abort the enclave with its own error.
func TestChaosTamperCompactPages(t *testing.T) {
	for _, tc := range []struct {
		kind chaos.TamperKind
		want error
	}{
		{chaos.TamperBitFlip, mee.ErrMACMismatch},
		{chaos.TamperMAC, mee.ErrMACMismatch},
		{chaos.TamperDrop, epc.ErrPageLost},
		{chaos.TamperRollback, mee.ErrRollback},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			m, env, page := tamperVictim(t)
			env.Main.ReadU64(page)
			sp := evictSealed(t, m, env, page)
			if sp.Ciphertext != nil {
				t.Fatal("an all-zero page was stored with its ciphertext")
			}
			if tc.kind == chaos.TamperRollback {
				// Capture now; replay on the next eviction.
				m.tamper(sp, tc.kind)
				env.Main.ReadU64(page)
				sp = evictSealed(t, m, env, page)
			}
			m.tamper(sp, tc.kind)
			err := Protect(func() { env.Main.ReadU64(page) })
			if !errors.Is(err, tc.want) || !IsAbort(err) {
				t.Fatalf("err = %v, want an abort wrapping %v", err, tc.want)
			}
		})
	}
}

// TestChaosRollbackStashIsDeep stashes a sealed page, then has the
// store recycle that entry and reseal another version into its
// storage in place. The stash must still hold the stale image it
// captured, and replaying it must be caught as a rollback.
func TestChaosRollbackStashIsDeep(t *testing.T) {
	m, env, page := tamperVictim(t)
	id := env.Enclave.PageID(page)
	env.Main.WriteU64(page, 0x1111)
	sp := evictSealed(t, m, env, page)
	m.tamper(sp, chaos.TamperRollback)
	stash := m.rollbackStash[id]
	captured := *stash.Ciphertext

	env.Main.WriteU64(page, 0x2222) // load-back retires sp to the free list
	if again := evictSealed(t, m, env, page); again != sp {
		t.Fatal("the second eviction did not reseal the retired entry in place")
	}
	if *stash.Ciphertext != captured || stash.Ciphertext == sp.Ciphertext {
		t.Fatal("resealing the store's entry changed the rollback stash")
	}
	m.tamper(sp, chaos.TamperRollback)
	if err := Protect(func() { env.Main.ReadU64(page) }); !errors.Is(err, mee.ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", err)
	}
}
