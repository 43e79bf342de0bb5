package sgx

import (
	"errors"
	"strings"
	"testing"

	"sgxgauge/internal/epc"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
)

// These tests inject untrusted-memory attacks and verify the machine
// refuses to continue — the security properties §2.2 ascribes to the
// MEE (confidentiality, integrity, freshness) as observed end-to-end
// through the access path. Victim pages are evicted deterministically
// with ForceEvict, and faults are observed as typed errors through
// Protect.

func launchVictim(t *testing.T) (*Machine, *Env, *Thread, uint64) {
	t.Helper()
	m := NewMachine(Config{EPCPages: 32})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 128); err != nil {
		t.Fatal(err)
	}
	victim := env.MustAlloc(mem.PageSize, mem.PageSize)
	return m, env, env.Main, victim
}

func TestTamperedEvictedPageAbortsEnclave(t *testing.T) {
	m, env, tr, victim := launchVictim(t)
	tr.WriteU64(victim, 0x1234)
	if !m.ForceEvict(tr, victim) {
		t.Fatal("victim page was not resident")
	}

	id := mem.PageID{Enclave: env.Enclave.ID, VPN: mem.PageNumber(victim)}
	sp := m.Backing.Get(id)
	if sp == nil {
		t.Fatal("evicted page missing from backing store")
	}
	sp.Ciphertext.Data[8] ^= 0xFF // the untrusted OS flips bits

	err := Protect(func() { tr.ReadU64(victim) })
	if err == nil {
		t.Fatal("access to tampered page succeeded")
	}
	if !errors.Is(err, mee.ErrMACMismatch) {
		t.Fatalf("err = %v, want wrapped mee.ErrMACMismatch", err)
	}
	if !IsAbort(err) {
		t.Fatalf("err = %v, want AbortError", err)
	}
	if !env.Enclave.Aborted() {
		t.Fatal("enclave not marked aborted after integrity failure")
	}
	// The abort is sticky: any further access fails the same way,
	// including accesses to pages that were never tampered.
	err = Protect(func() { tr.ReadU64(victim + 8) })
	if !IsAbort(err) {
		t.Fatalf("second access: err = %v, want AbortError", err)
	}
	// ECALLs into the aborted enclave fail too.
	err = Protect(func() { tr.ECall(func() {}) })
	if !IsAbort(err) {
		t.Fatalf("ECall into aborted enclave: err = %v, want AbortError", err)
	}
}

func TestReplayedEvictedPageAbortsEnclave(t *testing.T) {
	m, env, tr, victim := launchVictim(t)
	id := mem.PageID{Enclave: env.Enclave.ID, VPN: mem.PageNumber(victim)}

	// Version 1: write, evict, capture the sealed page.
	tr.WriteU64(victim, 1)
	if !m.ForceEvict(tr, victim) {
		t.Fatal("victim not resident on first eviction")
	}
	old := m.Backing.Get(id)
	if old == nil {
		t.Fatal("evicted page missing from backing store")
	}
	stale := *old

	// Version 2: fault it back, change it, evict again.
	tr.WriteU64(victim, 2)
	if !m.ForceEvict(tr, victim) {
		t.Fatal("victim not resident on second eviction")
	}

	// The untrusted OS replays the stale version-1 page.
	m.Backing.Put(&stale)

	err := Protect(func() { tr.ReadU64(victim) })
	if !errors.Is(err, mee.ErrRollback) {
		t.Fatalf("err = %v, want wrapped mee.ErrRollback (rollback undetected)", err)
	}
	if !env.Enclave.Aborted() {
		t.Fatal("enclave not marked aborted after replay")
	}
}

func TestDroppedSealedPageAbortsEnclave(t *testing.T) {
	m, env, tr, victim := launchVictim(t)
	id := mem.PageID{Enclave: env.Enclave.ID, VPN: mem.PageNumber(victim)}

	tr.WriteU64(victim, 7)
	if !m.ForceEvict(tr, victim) {
		t.Fatal("victim page was not resident")
	}
	// The untrusted OS "loses" the sealed page.
	m.Backing.Delete(id)

	err := Protect(func() { tr.ReadU64(victim) })
	if !errors.Is(err, epc.ErrPageLost) {
		t.Fatalf("err = %v, want wrapped epc.ErrPageLost", err)
	}
	if !env.Enclave.Aborted() {
		t.Fatal("enclave not marked aborted after dropped page")
	}
}

func TestAbortLeavesSiblingEnclaveRunning(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})

	envA := m.NewEnv(Native)
	if _, err := envA.LaunchEnclave(1, 64); err != nil {
		t.Fatal(err)
	}
	envB := m.NewEnv(Native)
	if _, err := envB.LaunchEnclave(1, 64); err != nil {
		t.Fatal(err)
	}

	trA, trB := envA.Main, envB.Main
	victimA := envA.MustAlloc(mem.PageSize, mem.PageSize)
	addrB := envB.MustAlloc(mem.PageSize, mem.PageSize)
	trB.WriteU64(addrB, 42)

	// Tamper enclave A's evicted page; A aborts.
	trA.WriteU64(victimA, 1)
	if !m.ForceEvict(trA, victimA) {
		t.Fatal("victim page was not resident")
	}
	sp := m.Backing.Get(mem.PageID{Enclave: envA.Enclave.ID, VPN: mem.PageNumber(victimA)})
	if sp == nil {
		t.Fatal("evicted page missing from backing store")
	}
	sp.MAC[0] ^= 1
	if err := Protect(func() { trA.ReadU64(victimA) }); !IsAbort(err) {
		t.Fatalf("enclave A: err = %v, want AbortError", err)
	}

	// Enclave B on the same machine is unaffected.
	if envB.Enclave.Aborted() {
		t.Fatal("sibling enclave B aborted")
	}
	err := Protect(func() {
		if got := trB.ReadU64(addrB); got != 42 {
			t.Errorf("enclave B read %d, want 42", got)
		}
		trB.ECall(func() { trB.WriteU64(addrB, 43) })
	})
	if err != nil {
		t.Fatalf("sibling enclave B faulted: %v", err)
	}
}

func TestEvictedDataConfidential(t *testing.T) {
	// Secret data written to enclave memory must never appear in
	// plaintext in the untrusted backing store.
	m, env, tr, victim := launchVictim(t)

	secret := []byte("TOP-SECRET-ENCLAVE-DATA-0123456789")
	tr.Write(victim, secret)
	if !m.ForceEvict(tr, victim) {
		t.Fatal("victim page was not resident")
	}

	id := mem.PageID{Enclave: env.Enclave.ID, VPN: mem.PageNumber(victim)}
	sp := m.Backing.Get(id)
	if sp == nil {
		t.Fatal("evicted page missing from backing store")
	}
	if strings.Contains(string(sp.Ciphertext.Data[:]), string(secret)) {
		t.Fatal("secret visible in plaintext in untrusted memory")
	}
	// And it still reads back correctly.
	got := make([]byte, len(secret))
	tr.Read(victim, got)
	if string(got) != string(secret) {
		t.Fatal("secret corrupted after eviction round trip")
	}
}
