package sgx

import (
	"runtime"
	"testing"
	"testing/quick"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

func TestConfigDefaults(t *testing.T) {
	m := NewMachine(Config{})
	cfg := m.Config()
	if cfg.EPCPages != DefaultEPCPages {
		t.Errorf("EPCPages = %d", cfg.EPCPages)
	}
	if cfg.TLBEntries != 2*DefaultEPCPages {
		t.Errorf("TLBEntries = %d, want %d", cfg.TLBEntries, 2*DefaultEPCPages)
	}
	if cfg.LLCBytes != DefaultEPCPages*mem.PageSize/2 {
		t.Errorf("LLCBytes = %d", cfg.LLCBytes)
	}
	if m.EPCBytes() != uint64(DefaultEPCPages)*mem.PageSize {
		t.Errorf("EPCBytes = %d", m.EPCBytes())
	}
}

func TestConfigMinimums(t *testing.T) {
	m := NewMachine(Config{EPCPages: 1})
	cfg := m.Config()
	if cfg.TLBEntries < 64 || cfg.LLCBytes < 64*1024 {
		t.Errorf("tiny machine got TLB=%d LLC=%d", cfg.TLBEntries, cfg.LLCBytes)
	}
}

// The machine has no first-level cache: the L1 counters keep their
// Snapshot slots but nothing ever counts them.
func TestL1DisabledByDefault(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	addr := m.AllocUntrusted(4096, 8)
	env.Main.ReadU64(addr)
	env.Main.ReadU64(addr)
	if m.Counters.Get(perf.L1Hits)+m.Counters.Get(perf.L1Misses) != 0 {
		t.Error("L1 traffic counted on a machine without an L1")
	}
}

func TestUntrustedReadWrite(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main

	addr := m.AllocUntrusted(64, 8)
	tr.WriteU64(addr, 0xdeadbeefcafef00d)
	if got := tr.ReadU64(addr); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x", got)
	}
	tr.WriteU32(addr+8, 0x12345678)
	if got := tr.ReadU32(addr + 8); got != 0x12345678 {
		t.Fatalf("ReadU32 = %#x", got)
	}
	tr.WriteU8(addr+12, 0xAB)
	if got := tr.ReadU8(addr + 12); got != 0xAB {
		t.Fatalf("ReadU8 = %#x", got)
	}
	tr.WriteF64(addr+16, 3.25)
	if got := tr.ReadF64(addr + 16); got != 3.25 {
		t.Fatalf("ReadF64 = %v", got)
	}
}

func TestPageSpanningAccess(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main

	addr := m.AllocUntrusted(3*mem.PageSize, mem.PageSize)
	data := make([]byte, 2*mem.PageSize)
	for i := range data {
		data[i] = byte(i % 253)
	}
	// Write straddling two page boundaries.
	tr.Write(addr+mem.PageSize/2, data)
	out := make([]byte, len(data))
	tr.Read(addr+mem.PageSize/2, out)
	for i := range out {
		if out[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, out[i], data[i])
		}
	}
}

func TestMemsetMemcpy(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main

	a := m.AllocUntrusted(8192, mem.PageSize)
	b := m.AllocUntrusted(8192, mem.PageSize)
	tr.Memset(a, 0x5A, 5000)
	tr.Memcpy(b, a, 5000)
	buf := make([]byte, 5000)
	tr.Read(b, buf)
	for i, v := range buf {
		if v != 0x5A {
			t.Fatalf("byte %d = %#x after Memcpy", i, v)
		}
	}
	if tr.ReadU8(b+5000) != 0 {
		t.Error("Memcpy overran")
	}
}

func TestFirstTouchCountsPageFault(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main
	addr := m.AllocUntrusted(mem.PageSize, mem.PageSize)

	before := m.Counters.Get(perf.PageFaults)
	tr.WriteU8(addr, 1)
	if m.Counters.Get(perf.PageFaults) != before+1 {
		t.Error("first touch did not fault")
	}
	tr.WriteU8(addr+8, 1)
	if m.Counters.Get(perf.PageFaults) != before+1 {
		t.Error("second touch faulted again")
	}
}

func TestTLBMissThenHit(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main
	addr := m.AllocUntrusted(mem.PageSize, mem.PageSize)

	tr.ReadU8(addr)
	misses := m.Counters.Get(perf.DTLBMisses)
	if misses != 1 {
		t.Fatalf("first access: %d dTLB misses, want 1", misses)
	}
	tr.ReadU8(addr + 100)
	if m.Counters.Get(perf.DTLBMisses) != misses {
		t.Error("same-page access missed the TLB")
	}
	if m.Counters.Get(perf.WalkCycles) == 0 {
		t.Error("no walk cycles charged")
	}
}

func TestVanillaHasNoSGXCosts(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main
	addr := m.AllocUntrusted(16*mem.PageSize, mem.PageSize)
	tr.ECall(func() {
		tr.Memset(addr, 1, 16*mem.PageSize)
	})
	tr.Syscall(100)
	c := m.Counters
	for _, e := range []perf.Event{perf.ECalls, perf.OCalls, perf.AEXs, perf.EPCEvictions, perf.EPCAllocs, perf.TLBFlushes} {
		if c.Get(e) != 0 {
			t.Errorf("%v = %d in Vanilla mode, want 0", e, c.Get(e))
		}
	}
	if c.Get(perf.Syscalls) != 1 {
		t.Errorf("Syscalls = %d, want 1", c.Get(perf.Syscalls))
	}
}

func TestLaunchEnclaveMeasuresImage(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	enc, err := env.LaunchEnclave(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !enc.Launched() {
		t.Error("enclave not launched")
	}
	if enc.Measurement == [32]byte{} {
		t.Error("empty measurement")
	}
	if got := m.Counters.Get(perf.EPCAllocs); got != 8 {
		t.Errorf("EPCAllocs = %d, want 8 (image pages)", got)
	}
}

func TestLaunchStormWhenImageExceedsEPC(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(LibOS)
	// A 3x-EPC image must evict roughly imagePages - capacity pages.
	if _, err := env.LaunchEnclaveReserve(192, 8, 192); err != nil {
		t.Fatal(err)
	}
	evic := m.Counters.Get(perf.EPCEvictions)
	if evic < 100 {
		t.Errorf("launch storm evicted only %d pages", evic)
	}
}

func TestLaunchErrors(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	if _, err := m.NewEnv(Vanilla).LaunchEnclave(1, 2); err == nil {
		t.Error("LaunchEnclave in Vanilla mode succeeded")
	}
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(4, 2); err == nil {
		t.Error("image > size accepted")
	}
	if _, err := env.LaunchEnclaveReserve(2, 3, 4); err == nil {
		t.Error("reserve > image accepted")
	}
	if _, err := env.LaunchEnclave(1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := env.LaunchEnclave(1, 8); err == nil {
		t.Error("second enclave in one env accepted")
	}
}

func TestEnclaveDataIntegrityUnderThrash(t *testing.T) {
	// Working set 2x the EPC: every page round-trips through
	// evict/load-back, and every byte must survive.
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 256); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	base := env.MustAlloc(128*mem.PageSize, mem.PageSize)
	for pass := 0; pass < 3; pass++ {
		for p := uint64(0); p < 128; p++ {
			addr := base + p*mem.PageSize
			if pass == 0 {
				tr.WriteU64(addr, p*1000)
			} else if got := tr.ReadU64(addr); got != p*1000 {
				t.Fatalf("pass %d page %d: %d, want %d", pass, p, got, p*1000)
			}
		}
	}
	if m.Counters.Get(perf.EPCEvictions) == 0 {
		t.Fatal("thrash test did not evict — EPC too large for the test to mean anything")
	}
}

func TestEnclaveRandomAccessProperty(t *testing.T) {
	m := NewMachine(Config{EPCPages: 32})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 128); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	base := env.MustAlloc(96*mem.PageSize, 8)
	model := map[uint64]uint64{}
	f := func(slot uint16, val uint64) bool {
		addr := base + uint64(slot)%((96*mem.PageSize-8)/8)*8
		tr.WriteU64(addr, val)
		model[addr] = val
		// Read back a previously written address (this one).
		return tr.ReadU64(addr) == model[addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Re-verify the full model at the end (after arbitrary thrash).
	for addr, val := range model {
		if got := tr.ReadU64(addr); got != val {
			t.Fatalf("addr %#x = %d, want %d", addr, got, val)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, perf.Snapshot) {
		m := NewMachine(Config{EPCPages: 64, Seed: 3})
		env := m.NewEnv(Native)
		if _, err := env.LaunchEnclave(4, 192); err != nil {
			t.Fatal(err)
		}
		tr := env.Main
		base := env.MustAlloc(150*mem.PageSize, mem.PageSize)
		tr.ECall(func() {
			for p := uint64(0); p < 150; p++ {
				tr.WriteU64(base+p*mem.PageSize+8, p)
			}
			for p := uint64(0); p < 150; p += 3 {
				tr.ReadU64(base + p*mem.PageSize + 8)
			}
		})
		return tr.Clock.Cycles(), m.Counters.Snapshot()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Errorf("cycles differ across identical runs: %d vs %d", c1, c2)
	}
	if s1 != s2 {
		t.Errorf("counters differ across identical runs")
	}
}

func TestDestroyEnclaveFreesEPC(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	enc, err := env.LaunchEnclave(32, 48)
	if err != nil {
		t.Fatal(err)
	}
	if m.EPC.Resident() == 0 {
		t.Fatal("nothing resident after launch")
	}
	m.DestroyEnclave(enc)
	if m.EPC.Resident() != 0 {
		t.Errorf("%d pages resident after destroy", m.EPC.Resident())
	}
	if m.enclaveFor(enc.Base) != nil {
		t.Error("destroyed enclave still resolves")
	}
}

// TestNewMachineAllocatesNoEPCFrames bounds the host bytes a new
// machine allocates: EPC frames are allocated when a slot is first
// taken, so a machine that has not run an enclave holds none of its
// EPC's bytes (1 MiB at 256 pages). The minimum over a few tries
// discounts allocations by anything else running in the process.
func TestNewMachineAllocatesNoEPCFrames(t *testing.T) {
	const epcPages = 256
	var ms runtime.MemStats
	least := ^uint64(0)
	for range 5 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m := NewMachine(Config{EPCPages: epcPages})
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
		runtime.KeepAlive(m)
	}
	t.Logf("NewMachine(EPCPages: %d) allocates %d bytes", epcPages, least)
	if limit := uint64(epcPages * mem.PageSize / 8); least > limit {
		t.Errorf("NewMachine(EPCPages: %d) allocated %d bytes, want <= %d (an eager frame arena alone is %d)",
			epcPages, least, limit, epcPages*mem.PageSize)
	}
}
