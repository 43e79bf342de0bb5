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

// TestStormEqualsOneByOne checks that an eviction storm is nothing but
// single-page EWBs in CLOCK order: a Clone of the EPC that evicts the
// storm's victims one at a time with EvictPage sees the same hook
// order, seal versions and MACs, clock at each hook, op statistics
// and counters.
func TestStormEqualsOneByOne(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	e.SetIntegrityTree(mee.NewIntegrityTree(256, 2))
	for vpn := uint64(0); vpn < 32; vpn++ {
		f := mustAlloc(t, e, clk, &costs, id(vpn))
		f.Data[vpn] = byte(vpn + 1) // distinct contents, none all zero
	}
	// Thrash over more pages than fit, so storms and load-backs leave
	// pages at several seal versions and the CLOCK hand mid-table, then
	// touch every third page so the next sweep skips slots.
	for round := 0; round < 3; round++ {
		for vpn := uint64(0); vpn < 48; vpn++ {
			if _, ok := e.Lookup(id(vpn)); !ok {
				if _, _, err := e.Fault(clk, &costs, id(vpn)); err != nil {
					t.Fatalf("fault of %d: %v", vpn, err)
				}
			}
		}
	}
	for vpn := uint64(0); vpn < 48; vpn += 3 {
		e.Lookup(id(vpn))
	}
	for vpn := uint64(50); e.Resident() < e.Capacity(); vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}

	type ewb struct {
		id    mem.PageID
		ver   uint64
		mac   [16]byte
		cycle uint64
	}
	record := func(e *EPC, clk *cycles.Clock, log *[]ewb) {
		e.SetEvictHook(func(pid mem.PageID) {
			v := ewb{id: pid, ver: e.versions.get(pid), cycle: clk.Cycles()}
			if sp := e.backing.Get(pid); sp != nil {
				v.mac = sp.MAC
			}
			*log = append(*log, v)
		})
	}
	cloneCounters, cloneClk := counters.Clone(), *clk
	c := e.Clone(e.backing.Clone(), cloneCounters)

	var storm, single []ewb
	record(e, clk, &storm)
	mustAlloc(t, e, clk, &costs, id(100))
	if len(storm) != BatchEvictPages {
		t.Fatalf("storm evicted %d pages, want %d", len(storm), BatchEvictPages)
	}

	record(c, &cloneClk, &single)
	for _, v := range storm {
		if ok, err := c.EvictPage(&cloneClk, &costs, v.id); err != nil || !ok {
			t.Fatalf("EvictPage(%v): ok=%v err=%v", v.id, ok, err)
		}
	}
	mustAlloc(t, c, &cloneClk, &costs, id(100))

	for i := range storm {
		if storm[i] != single[i] {
			t.Errorf("eviction %d: storm %+v, one by one %+v", i, storm[i], single[i])
		}
	}
	for op := Op(0); op < numOps; op++ {
		if got, want := c.OpStatsFor(op), e.OpStatsFor(op); got != want {
			t.Errorf("%v stats: one by one %+v, storm %+v", op, got, want)
		}
	}
	if got, want := cloneCounters.Snapshot(), counters.Snapshot(); got != want {
		t.Errorf("counters: one by one %v, storm %v", got, want)
	}
	if cloneClk.Cycles() != clk.Cycles() {
		t.Errorf("clock: one by one %d, storm %d", cloneClk.Cycles(), clk.Cycles())
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
	mustAlloc(t, e, clk, &costs, mem.PageID{Enclave: 1, VPN: 1})
	mustAlloc(t, e, clk, &costs, mem.PageID{Enclave: 2, VPN: 0})
	// One enclave-1 page sits sealed in the untrusted store.
	if ok, err := e.EvictPage(clk, &costs, mem.PageID{Enclave: 1, VPN: 1}); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	e.RemoveEnclave(1)
	if _, ok := e.Lookup(mem.PageID{Enclave: 1, VPN: 0}); ok {
		t.Error("enclave 1 page survived RemoveEnclave")
	}
	if _, ok := e.Lookup(mem.PageID{Enclave: 2, VPN: 0}); !ok {
		t.Error("enclave 2 page was removed")
	}
	// Torn-down pages, resident or sealed, fault back as fresh (zero)
	// pages rather than as load-backs or lost pages.
	for vpn := uint64(0); vpn < 2; vpn++ {
		_, loaded, err := e.Fault(clk, &costs, mem.PageID{Enclave: 1, VPN: vpn})
		if err != nil || loaded {
			t.Errorf("fault of vpn %d after RemoveEnclave: loaded=%v err=%v", vpn, loaded, err)
		}
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

// framesHeld counts the slots whose frame has been allocated.
func framesHeld(e *EPC) int {
	n := 0
	for _, f := range e.frames {
		if f != nil {
			n++
		}
	}
	return n
}

// TestFramesAllocatedOnFirstUse: a fresh EPC holds no frames, each
// slot gets one when first taken, and page data survives allocation,
// eviction, load-back, Clone and Resize on a partly filled EPC while
// the frame count tracks what was touched, not the capacity.
func TestFramesAllocatedOnFirstUse(t *testing.T) {
	e, _, clk, costs := newTestEPC(64)
	if n := framesHeld(e); n != 0 {
		t.Fatalf("fresh EPC holds %d frames, want 0", n)
	}
	fill := func(f *mem.Frame, vpn uint64) {
		for i := range f.Data {
			f.Data[i] = byte(vpn*7 + uint64(i)%13)
		}
	}
	check := func(e *EPC, vpn uint64, what string) *mem.Frame {
		t.Helper()
		f, ok := e.Lookup(id(vpn))
		if !ok {
			var err error
			if f, _, err = e.Fault(clk, &costs, id(vpn)); err != nil {
				t.Fatalf("%s: fault of vpn %d: %v", what, vpn, err)
			}
		}
		for i := range f.Data {
			if f.Data[i] != byte(vpn*7+uint64(i)%13) {
				t.Fatalf("%s: vpn %d byte %d = %d", what, vpn, i, f.Data[i])
			}
		}
		return f
	}
	const pages = 20
	for vpn := uint64(0); vpn < pages; vpn++ {
		fill(mustAlloc(t, e, clk, &costs, id(vpn)), vpn)
	}
	if n := framesHeld(e); n != pages {
		t.Fatalf("after %d allocations the EPC holds %d frames", pages, n)
	}
	// Evict a few pages: their slots keep their frames, and the
	// load-backs reuse them instead of allocating more.
	for vpn := uint64(0); vpn < 5; vpn++ {
		if ok, err := e.EvictPage(clk, &costs, id(vpn)); err != nil || !ok {
			t.Fatalf("EvictPage(%d): ok=%v err=%v", vpn, ok, err)
		}
	}
	for vpn := uint64(0); vpn < 5; vpn++ {
		check(e, vpn, "load-back")
	}
	if n := framesHeld(e); n != pages {
		t.Fatalf("load-backs left %d frames, want %d", n, pages)
	}
	// A fresh allocation into a reused frame starts zeroed.
	if ok, err := e.EvictPage(clk, &costs, id(19)); err != nil || !ok {
		t.Fatalf("EvictPage(19): ok=%v err=%v", ok, err)
	}
	f := mustAlloc(t, e, clk, &costs, id(100))
	if f.Data != ([mem.PageSize]byte{}) {
		t.Fatal("AllocPage into a reused frame returned stale data")
	}
	fill(f, 100)

	// Clone a partly resident EPC: only resident pages' frames are
	// copied, and the copies are the clone's own.
	for vpn := uint64(10); vpn < 15; vpn++ {
		if ok, err := e.EvictPage(clk, &costs, id(vpn)); err != nil || !ok {
			t.Fatalf("EvictPage(%d): ok=%v err=%v", vpn, ok, err)
		}
	}
	c := e.Clone(e.backing.Clone(), &perf.Counters{})
	if n, want := framesHeld(c), c.Resident(); n != want {
		t.Fatalf("clone holds %d frames, want its %d resident pages", n, want)
	}
	for _, vpn := range []uint64{0, 9, 15, 100} {
		orig, _ := e.Lookup(id(vpn))
		cp := check(c, vpn, "clone")
		if cp == orig {
			t.Fatalf("clone shares vpn %d's frame with the original", vpn)
		}
		cp.Data[0] ^= 0xFF
		if orig.Data[0] != byte(vpn*7) {
			t.Fatalf("writing the clone's vpn %d changed the original", vpn)
		}
		cp.Data[0] ^= 0xFF
	}
	check(c, 12, "clone load-back")

	// Resize moves frame pointers with their pages and drops free
	// slots' frames; growing adds only empty slots.
	before, _ := e.Lookup(id(3))
	if err := e.Resize(clk, &costs, 128); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if after := check(e, 3, "grow"); after != before {
		t.Fatal("Resize copied a resident frame instead of moving it")
	}
	if n, want := framesHeld(e), e.Resident(); n != want {
		t.Fatalf("after growing the EPC holds %d frames, want its %d resident pages", n, want)
	}
	if err := e.Resize(clk, &costs, MinCapacity); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if n := framesHeld(e); n > MinCapacity {
		t.Fatalf("after shrinking to %d slots the EPC holds %d frames", MinCapacity, n)
	}
	for vpn := uint64(0); vpn < pages-1; vpn++ {
		check(e, vpn, "shrink")
	}
	check(e, 100, "shrink")
}
