package epc

import (
	"errors"
	"testing"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

func newTestEPC(capacity int) (*EPC, *perf.Counters, *cycles.Clock, cycles.CostModel) {
	counters := &perf.Counters{}
	e := New(capacity, mee.New(1), mem.NewBackingStore(), counters)
	return e, counters, &cycles.Clock{}, cycles.DefaultCosts()
}

func id(vpn uint64) mem.PageID { return mem.PageID{Enclave: 1, VPN: vpn} }

// mustAlloc is AllocPage for tests that expect it to succeed.
func mustAlloc(t *testing.T, e *EPC, clk *cycles.Clock, costs *cycles.CostModel, pid mem.PageID) *mem.Frame {
	t.Helper()
	f, err := e.AllocPage(clk, costs, pid)
	if err != nil {
		t.Fatalf("AllocPage(%v): %v", pid, err)
	}
	return f
}

func TestAllocAndLookup(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	f := mustAlloc(t, e, clk, &costs, id(10))
	if f == nil {
		t.Fatal("AllocPage returned nil")
	}
	got, ok := e.Lookup(id(10))
	if !ok || got != f {
		t.Fatal("Lookup did not return the allocated frame")
	}
	if counters.Get(perf.EPCAllocs) != 1 {
		t.Errorf("EPCAllocs = %d, want 1", counters.Get(perf.EPCAllocs))
	}
	if clk.Cycles() == 0 {
		t.Error("AllocPage charged no cycles")
	}
	if e.Resident() != 1 {
		t.Errorf("Resident = %d, want 1", e.Resident())
	}
}

func TestAllocResidentPanics(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(1))
	defer func() {
		if recover() == nil {
			t.Error("double alloc did not panic")
		}
	}()
	mustAlloc(t, e, clk, &costs, id(1))
}

func TestBatchEvictionOnPressure(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	for vpn := uint64(0); vpn < 32; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if counters.Get(perf.EPCEvictions) != 0 {
		t.Fatal("evictions before capacity exceeded")
	}
	// One more allocation forces a 16-page batch eviction.
	mustAlloc(t, e, clk, &costs, id(100))
	if got := counters.Get(perf.EPCEvictions); got != BatchEvictPages {
		t.Errorf("evictions = %d, want %d (one batch)", got, BatchEvictPages)
	}
	if e.Resident() != 32-BatchEvictPages+1 {
		t.Errorf("Resident = %d", e.Resident())
	}
}

func TestDataSurvivesEvictionAndFault(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	f := mustAlloc(t, e, clk, &costs, id(0))
	for i := range f.Data {
		f.Data[i] = byte(i % 251)
	}
	// Evict page 0 deterministically through the normal EWB path.
	if ok, err := e.EvictPage(clk, &costs, id(0)); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	if _, ok := e.Lookup(id(0)); ok {
		t.Fatal("page 0 still resident after EvictPage")
	}
	got, loaded, err := e.Fault(clk, &costs, id(0))
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if !loaded {
		t.Fatal("Fault did not load back a previously-evicted page")
	}
	for i := range got.Data {
		if got.Data[i] != byte(i%251) {
			t.Fatalf("byte %d corrupted after evict/load-back: %d", i, got.Data[i])
		}
	}
	if counters.Get(perf.EPCLoadBacks) == 0 {
		t.Error("no load-back counted")
	}
}

func TestFaultFreshAllocation(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	f, loaded, err := e.Fault(clk, &costs, id(7))
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if loaded {
		t.Error("first-touch fault claimed a load-back")
	}
	for _, b := range f.Data[:64] {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	if counters.Get(perf.EPCLoadBacks) != 0 {
		t.Error("load-back counted for a fresh allocation")
	}
}

func TestFaultResidentPanics(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(1))
	defer func() {
		if recover() == nil {
			t.Error("Fault on resident page did not panic")
		}
	}()
	e.Fault(clk, &costs, id(1))
}

func TestTamperedBackingStoreDetected(t *testing.T) {
	counters := &perf.Counters{}
	backing := mem.NewBackingStore()
	e := New(32, mee.New(1), backing, counters)
	clk := &cycles.Clock{}
	costs := cycles.DefaultCosts()

	f := mustAlloc(t, e, clk, &costs, id(0))
	f.Data[0] = 0x42
	if ok, err := e.EvictPage(clk, &costs, id(0)); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	sp := backing.Get(id(0))
	if sp == nil {
		t.Fatal("evicted page missing from backing store")
	}
	sp.Ciphertext[0] ^= 1
	if _, _, err := e.Fault(clk, &costs, id(0)); err == nil {
		t.Fatal("tampered page loaded back without error")
	}
}

func TestDroppedSealedPageDetected(t *testing.T) {
	counters := &perf.Counters{}
	backing := mem.NewBackingStore()
	e := New(32, mee.New(1), backing, counters)
	clk := &cycles.Clock{}
	costs := cycles.DefaultCosts()

	mustAlloc(t, e, clk, &costs, id(0))
	if ok, err := e.EvictPage(clk, &costs, id(0)); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	// The untrusted OS "loses" the sealed page.
	backing.Delete(id(0))
	_, _, err := e.Fault(clk, &costs, id(0))
	if !errors.Is(err, ErrPageLost) {
		t.Fatalf("Fault after dropped page: err=%v, want ErrPageLost", err)
	}
}

func TestEvictPageNonResident(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	if ok, err := e.EvictPage(clk, &costs, id(5)); err != nil || ok {
		t.Fatalf("EvictPage of non-resident page: ok=%v err=%v", ok, err)
	}
}

func TestResizeShrinkAndGrow(t *testing.T) {
	e, counters, clk, costs := newTestEPC(64)
	for vpn := uint64(0); vpn < 64; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if err := e.Resize(clk, &costs, 32); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if e.Capacity() != 32 {
		t.Errorf("capacity = %d, want 32", e.Capacity())
	}
	if e.Resident() > 32 {
		t.Errorf("resident = %d exceeds shrunk capacity", e.Resident())
	}
	if counters.Get(perf.EPCEvictions) < 32 {
		t.Errorf("shrink evicted %d pages, want >= 32", counters.Get(perf.EPCEvictions))
	}
	if counters.Get(perf.EPCResizes) != 1 {
		t.Errorf("EPCResizes = %d, want 1", counters.Get(perf.EPCResizes))
	}
	// Every surviving resident page must still be found, and evicted
	// ones must load back intact.
	for vpn := uint64(0); vpn < 64; vpn++ {
		if _, ok := e.Lookup(id(vpn)); !ok {
			if _, _, err := e.Fault(clk, &costs, id(vpn)); err != nil {
				t.Fatalf("fault after shrink (vpn %d): %v", vpn, err)
			}
		}
	}
	if err := e.Resize(clk, &costs, 96); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if e.Capacity() != 96 {
		t.Errorf("capacity = %d, want 96", e.Capacity())
	}
	for vpn := uint64(100); vpn < 140; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if counters.Get(perf.EPCResizes) != 2 {
		t.Errorf("EPCResizes = %d, want 2", counters.Get(perf.EPCResizes))
	}
}

func TestResizeClampsToMinimum(t *testing.T) {
	e, _, clk, costs := newTestEPC(64)
	if err := e.Resize(clk, &costs, 1); err != nil {
		t.Fatalf("resize: %v", err)
	}
	if e.Capacity() != MinCapacity {
		t.Errorf("capacity = %d, want MinCapacity %d", e.Capacity(), MinCapacity)
	}
}

func TestEPCMLookup(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(9))
	ent := e.EPCMLookup(id(9))
	if !ent.Valid || ent.Owner != 1 || ent.VPN != 9 {
		t.Errorf("EPCM entry = %+v", ent)
	}
	if e.EPCMLookup(id(10)).Valid {
		t.Error("EPCM entry valid for non-resident page")
	}
}

func TestEvictHookFires(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	var evicted []mem.PageID
	e.SetEvictHook(func(pid mem.PageID) { evicted = append(evicted, pid) })
	for vpn := uint64(0); vpn <= 32; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if len(evicted) != BatchEvictPages {
		t.Errorf("hook fired %d times, want %d", len(evicted), BatchEvictPages)
	}
}

func TestOpStats(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	for vpn := uint64(0); vpn <= 40; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	alloc := e.OpStatsFor(OpAlloc)
	if alloc.Samples != 41 {
		t.Errorf("alloc samples = %d, want 41", alloc.Samples)
	}
	if alloc.MeanCycles() < float64(costs.EPCAlloc) {
		t.Errorf("alloc mean = %v below base cost %d", alloc.MeanCycles(), costs.EPCAlloc)
	}
	ewb := e.OpStatsFor(OpEWB)
	if ewb.Samples == 0 || ewb.Min == 0 || ewb.Max < ewb.Min {
		t.Errorf("ewb stats malformed: %+v", ewb)
	}
	// Figure 7 calibration: mean EWB should sit near 12K cycles and
	// exceed mean ELDU by roughly 16%.
	if m := ewb.MeanCycles(); m < float64(costs.EWBPage) || m > 1.2*float64(costs.EWBPage) {
		t.Errorf("EWB mean = %v, want near %d", m, costs.EWBPage)
	}
	if e.OpStatsFor(OpELDU).Samples != 0 {
		t.Error("phantom ELDU samples")
	}
}

func TestOpStatsEWBELDURatio(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	// Drive a thrash pattern so both EWB and ELDU accumulate samples.
	for round := 0; round < 20; round++ {
		for vpn := uint64(0); vpn < 64; vpn++ {
			if _, ok := e.Lookup(id(vpn)); !ok {
				if _, _, err := e.Fault(clk, &costs, id(vpn)); err != nil {
					t.Fatalf("fault: %v", err)
				}
			}
		}
	}
	ewb, eldu := e.OpStatsFor(OpEWB), e.OpStatsFor(OpELDU)
	if ewb.Samples < 100 || eldu.Samples < 100 {
		t.Fatalf("not enough samples: ewb=%d eldu=%d", ewb.Samples, eldu.Samples)
	}
	ratio := ewb.MeanCycles() / eldu.MeanCycles()
	if ratio < 1.10 || ratio > 1.25 {
		t.Errorf("EWB/ELDU mean ratio = %.3f, want ~1.16 (paper Appendix A)", ratio)
	}
}

func TestTimeline(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	e.EnableTimeline(clk, 4)
	for vpn := uint64(0); vpn < 40; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	tl := e.Timeline()
	if len(tl) == 0 {
		t.Fatal("no timeline samples")
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Cycle < tl[i-1].Cycle || tl[i].Allocs < tl[i-1].Allocs {
			t.Fatal("timeline is not monotone")
		}
	}
}

func TestRemoveEnclave(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, mem.PageID{Enclave: 1, VPN: 0})
	mustAlloc(t, e, clk, &costs, mem.PageID{Enclave: 2, VPN: 0})
	e.RemoveEnclave(1)
	if _, ok := e.Lookup(mem.PageID{Enclave: 1, VPN: 0}); ok {
		t.Error("enclave 1 page survived RemoveEnclave")
	}
	if _, ok := e.Lookup(mem.PageID{Enclave: 2, VPN: 0}); !ok {
		t.Error("enclave 2 page was removed")
	}
}

func TestRemovePage(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(3))
	e.Remove(id(3))
	if _, ok := e.Lookup(id(3)); ok {
		t.Error("page survived Remove")
	}
	// Removed page faults back as a fresh (zero) page.
	_, loaded, err := e.Fault(clk, &costs, id(3))
	if err != nil || loaded {
		t.Errorf("fault after Remove: loaded=%v err=%v", loaded, err)
	}
}

func TestMinimumCapacity(t *testing.T) {
	e := New(1, mee.New(1), mem.NewBackingStore(), &perf.Counters{})
	if e.Capacity() < BatchEvictPages+1 {
		t.Errorf("capacity = %d, must exceed one eviction batch", e.Capacity())
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpAlloc: "sgx_alloc_page",
		OpEWB:   "sgx_ewb",
		OpELDU:  "sgx_eldu",
		OpFault: "sgx_do_fault",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

// evictOut forces the page out and returns its sealed entry.
func evictOut(t *testing.T, e *EPC, clk *cycles.Clock, costs *cycles.CostModel, pid mem.PageID) *mem.SealedPage {
	t.Helper()
	if ok, err := e.EvictPage(clk, costs, pid); err != nil || !ok {
		t.Fatalf("EvictPage(%v): ok=%v err=%v", pid, ok, err)
	}
	sp := e.backing.Get(pid)
	if sp == nil {
		t.Fatalf("evicted page %v missing from backing store", pid)
	}
	return sp
}

// TestCompactPageAttacksDetected mounts every untrusted-memory attack
// on a page evicted all zero (stored without ciphertext): each must be
// caught on the way back in, exactly as for a page with contents.
func TestCompactPageAttacksDetected(t *testing.T) {
	engine := mee.New(1)
	attacks := map[string]struct {
		tamper func(b *mem.BackingStore, sp, stale *mem.SealedPage)
		want   error
	}{
		"bit-flip": {func(_ *mem.BackingStore, sp, _ *mem.SealedPage) {
			engine.Materialize(sp)
			sp.Ciphertext[123] ^= 4
		}, mee.ErrMACMismatch},
		"mac-flip": {func(_ *mem.BackingStore, sp, _ *mem.SealedPage) { sp.MAC[15] ^= 0x80 }, mee.ErrMACMismatch},
		"rollback": {func(b *mem.BackingStore, _, stale *mem.SealedPage) { b.Put(stale) }, mee.ErrRollback},
		"drop":     {func(b *mem.BackingStore, sp, _ *mem.SealedPage) { b.Delete(sp.ID) }, ErrPageLost},
	}
	for name, a := range attacks {
		t.Run(name, func(t *testing.T) {
			backing := mem.NewBackingStore()
			e := New(32, engine, backing, &perf.Counters{})
			clk, costs := &cycles.Clock{}, cycles.DefaultCosts()
			mustAlloc(t, e, clk, &costs, id(0))
			stale := evictOut(t, e, clk, &costs, id(0)).Copy()
			if _, _, err := e.Fault(clk, &costs, id(0)); err != nil {
				t.Fatalf("clean load-back: %v", err)
			}
			sp := evictOut(t, e, clk, &costs, id(0))
			if sp.Ciphertext != nil || stale.Ciphertext != nil {
				t.Fatal("an all-zero page was stored with its ciphertext")
			}
			a.tamper(backing, sp, stale)
			if _, _, err := e.Fault(clk, &costs, id(0)); !errors.Is(err, a.want) {
				t.Fatalf("Fault after %s: err=%v, want %v", name, err, a.want)
			}
		})
	}
}

// TestRecycledSealedPageChangesMode evicts a page with contents, then
// all zero, then with contents again. Each eviction after the first
// reseals the storage its previous load-back retired, so one
// SealedPage goes explicit → compact → explicit, and every load-back
// must return the data evicted.
func TestRecycledSealedPageChangesMode(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	f := mustAlloc(t, e, clk, &costs, id(0))
	var prev *mem.SealedPage
	for i, fill := range []byte{0x5A, 0, 0xC3} {
		for j := range f.Data {
			f.Data[j] = fill
		}
		want := f.Data
		sp := evictOut(t, e, clk, &costs, id(0))
		if prev != nil && sp != prev {
			t.Fatalf("eviction %d did not recycle the retired sealed page", i)
		}
		if (sp.Ciphertext == nil) != (fill == 0) {
			t.Fatalf("eviction %d: compact = %v, want %v", i, sp.Ciphertext == nil, fill == 0)
		}
		var err error
		if f, _, err = e.Fault(clk, &costs, id(0)); err != nil {
			t.Fatalf("load-back %d: %v", i, err)
		}
		if f.Data != want {
			t.Fatalf("load-back %d returned other data", i)
		}
		prev = sp
	}
}
