// Package epc implements the Enclave Page Cache of the simulated SGX
// machine: a bounded pool of protected page frames, the EPCM metadata
// table, CLOCK-based eviction with 16-page batches, and the four
// driver-level operations the paper instruments (sgx_alloc_page,
// sgx_ewb, sgx_eldu, sgx_do_fault — Appendix A).
//
// Pages evicted from the EPC are genuinely encrypted and MACed by the
// MEE and parked in the untrusted backing store; load-backs decrypt
// and integrity-check them. The EPC-fault storms that dominate the
// paper's evaluation are emergent behaviour of this bounded cache.
package epc

import (
	"errors"
	"fmt"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// Typed failures of the paging path. They propagate through Fault and
// AllocPage to the machine, which aborts the owning enclave instead of
// killing the process.
var (
	// ErrEPCExhausted reports that an allocation needed an eviction
	// but no evictable page exists (a degenerate configuration: the
	// EPC cannot hold even one batch of the working set).
	ErrEPCExhausted = errors.New("epc: exhausted: no evictable page found")
	// ErrPageLost reports that a page known to have been evicted has
	// vanished from the untrusted backing store — the OS dropped a
	// sealed page it was trusted to keep.
	ErrPageLost = errors.New("epc: sealed page missing from untrusted store")
)

// BatchEvictPages is how many pages one eviction pass writes back.
// "SGX evicts pages in a batch that is typically 16 pages" (paper
// Appendix A).
const BatchEvictPages = 16

// Op identifies one of the instrumented driver operations.
type Op int

// The four operations of Figure 7.
const (
	OpAlloc Op = iota
	OpEWB
	OpELDU
	OpFault
	numOps
)

// String returns the driver function name used in the paper.
func (o Op) String() string {
	switch o {
	case OpAlloc:
		return "sgx_alloc_page"
	case OpEWB:
		return "sgx_ewb"
	case OpELDU:
		return "sgx_eldu"
	case OpFault:
		return "sgx_do_fault"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpStats accumulates latency samples for one operation.
type OpStats struct {
	Samples uint64
	Cycles  uint64
	Min     uint64
	Max     uint64
}

// MeanCycles returns the mean latency in cycles, or 0 with no samples.
func (s OpStats) MeanCycles() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Samples)
}

// MeanMicros returns the mean latency in microseconds.
func (s OpStats) MeanMicros() float64 {
	if s.Samples == 0 {
		return 0
	}
	return cycles.Micros(s.Cycles) / float64(s.Samples)
}

func (s *OpStats) add(c uint64) {
	s.Samples++
	s.Cycles += c
	if s.Min == 0 || c < s.Min {
		s.Min = c
	}
	if c > s.Max {
		s.Max = c
	}
}

// TimelineEvent is one sampled point for Figure 9: cumulative EPC
// activity at a given simulated cycle stamp.
type TimelineEvent struct {
	Cycle     uint64
	Allocs    uint64
	Evictions uint64
	LoadBacks uint64
}

// EPCMEntry mirrors the fields of the hardware Enclave Page Cache Map
// the paper describes in §2.3: for each EPC page, its owner enclave
// and the virtual address it was allocated for. These are checked when
// a TLB entry for the page is installed.
type EPCMEntry struct {
	Owner uint32
	VPN   uint64
	Valid bool
}

// slot is one EPC page slot. It holds no frame pointer: slot i's data
// lives in the arena at frames[i], so the slot table is index-based
// and the per-slot state the eviction sweep walks stays compact.
type slot struct {
	id         mem.PageID
	referenced bool
	used       bool
}

// EPC is the enclave page cache. It is not safe for concurrent use;
// the machine serializes simulated threads.
type EPC struct {
	capacity int
	engine   *mee.Engine
	backing  *mem.BackingStore
	counters *perf.Counters

	// crypt amortizes MEE cipher/HMAC setup across every seal and
	// unseal the EPC performs (see mee.Batch); outputs are
	// byte-identical to the per-call engine path.
	crypt *mee.Batch

	slots []slot
	// frames is the arena backing the slot table: slot i's page data
	// is frames[i]. Pointers into the arena (Lookup results, the
	// machine's page memos) dangle when Resize rebuilds it; the resize
	// hook bounds that lifetime.
	frames   []mem.Frame
	resident *pageIdx
	free     []int
	hand     int

	// versions holds, per page, the version number used for the most
	// recent seal. Load-back must present exactly this version; any
	// other version is a rollback.
	versions *verIdx
	// verScratch collects IDs for verIdx.dropEnclave sweeps.
	verScratch []mem.PageID

	ops [numOps]OpStats

	// onEvict, when set, is called with the VPNs of pages that leave
	// the EPC so the machine can shoot down their TLB entries.
	onEvict func(id mem.PageID)

	// onRemove, when set, is called for each resident page discarded
	// without write-back (enclave teardown); like onEvict it lets the
	// machine invalidate stale TLB entries and cache lines, but no
	// EWB is charged.
	onRemove func(id mem.PageID)

	// onResize, when set, is called after Resize rebuilds the slot
	// table. Pointers into the old table (see LookupRef) are dangling
	// from that moment on; the machine uses this to drop its per-thread
	// page memos.
	onResize func()

	// tree, when set, is the Merkle integrity tree maintained over
	// evicted-page MACs: EWB updates a path, ELDU verifies one, and
	// each uncached level costs TreeLevel cycles (the VAULT-style
	// overhead of §2.2's integrity checking).
	tree *mee.IntegrityTree

	timeline      []TimelineEvent
	timelineEvery uint64
	opsSinceTick  uint64
	clockRef      *cycles.Clock

	jitter uint64
}

// New builds an EPC holding capacityPages pages, backed by the given
// MEE and untrusted store, charging the given counter bank.
func New(capacityPages int, engine *mee.Engine, backing *mem.BackingStore, counters *perf.Counters) *EPC {
	if capacityPages < BatchEvictPages+1 {
		capacityPages = BatchEvictPages + 1
	}
	e := &EPC{
		capacity: capacityPages,
		engine:   engine,
		backing:  backing,
		counters: counters,
		crypt:    engine.NewBatch(),
		slots:    make([]slot, capacityPages),
		frames:   make([]mem.Frame, capacityPages),
		resident: newPageIdx(capacityPages),
		versions: newVerIdx(),
		jitter:   0x9e3779b97f4a7c15,
	}
	e.free = make([]int, capacityPages)
	for i := range e.free {
		e.free[i] = capacityPages - 1 - i
	}
	return e
}

// Clone returns an independent copy of the EPC over the given backing
// store and counter bank (the clones of e's, made by the caller): the
// same slots, frame contents, residency and version indexes, CLOCK
// hand, op statistics and jitter state, so the copy evolves exactly as
// e would. The MEE engine is shared (its keys never change); the
// clone gets its own crypt batch. Hooks are not copied — the owning
// machine wires its own — and an EPC recording a timeline does not
// clone, because the sampled clock belongs to a thread of e's machine.
// Clone only reads e.
func (e *EPC) Clone(backing *mem.BackingStore, counters *perf.Counters) *EPC {
	if e.clockRef != nil {
		panic("epc: Clone of an EPC recording a timeline")
	}
	c := &EPC{
		capacity: e.capacity,
		engine:   e.engine,
		backing:  backing,
		counters: counters,
		crypt:    e.engine.NewBatch(),
		slots:    append([]slot(nil), e.slots...),
		frames:   append([]mem.Frame(nil), e.frames...),
		resident: e.resident.clone(),
		free:     append([]int(nil), e.free...),
		hand:     e.hand,
		versions: e.versions.clone(),
		ops:      e.ops,
		jitter:   e.jitter,
	}
	if e.tree != nil {
		c.tree = e.tree.Clone()
	}
	return c
}

// Capacity returns the number of pages the EPC can hold.
func (e *EPC) Capacity() int { return e.capacity }

// Resident returns the number of pages currently in the EPC.
func (e *EPC) Resident() int { return e.resident.len() }

// SetEvictHook registers fn to be invoked for each page evicted from
// the EPC (the machine uses this to invalidate TLB entries).
func (e *EPC) SetEvictHook(fn func(id mem.PageID)) { e.onEvict = fn }

// SetRemoveHook registers fn to be invoked for each resident page
// discarded by RemoveEnclave (the machine uses this to shoot
// down TLB entries and cache lines at enclave teardown).
func (e *EPC) SetRemoveHook(fn func(id mem.PageID)) { e.onRemove = fn }

// SetResizeHook registers fn to be invoked after every slot-table
// rebuild (Resize), at which point pointers returned by LookupRef are
// no longer valid.
func (e *EPC) SetResizeHook(fn func()) { e.onResize = fn }

// SetIntegrityTree attaches a Merkle integrity tree; subsequent
// evictions update it and load-backs verify against it.
func (e *EPC) SetIntegrityTree(t *mee.IntegrityTree) { e.tree = t }

// IntegrityTree returns the attached tree, or nil.
func (e *EPC) IntegrityTree() *mee.IntegrityTree { return e.tree }

// EnableTimeline starts recording a TimelineEvent roughly every
// everyOps EPC operations, stamped with clk's cycle count (Figure 9).
func (e *EPC) EnableTimeline(clk *cycles.Clock, everyOps uint64) {
	if everyOps == 0 {
		everyOps = 1
	}
	e.clockRef = clk
	e.timelineEvery = everyOps
	e.timeline = e.timeline[:0]
}

// Timeline returns the recorded samples.
func (e *EPC) Timeline() []TimelineEvent { return e.timeline }

// OpStatsFor returns the latency statistics of op.
func (e *EPC) OpStatsFor(op Op) OpStats { return e.ops[op] }

// EPCMLookup returns the EPCM entry for the page, valid only while the
// page is resident. The reference machine's TLB fill path consults
// this (paper Figure 1); the fast path's entry is built from the same
// PageID, so it verifies residency through LookupRef alone.
func (e *EPC) EPCMLookup(id mem.PageID) EPCMEntry {
	if idx, ok := e.resident.get(id); ok {
		return EPCMEntry{Owner: id.Enclave, VPN: id.VPN, Valid: e.slots[idx].used}
	}
	return EPCMEntry{}
}

// Lookup is LookupRef without the reference-bit pointer.
func (e *EPC) Lookup(id mem.PageID) (*mem.Frame, bool) {
	f, _, ok := e.LookupRef(id)
	return f, ok
}

// LookupRef returns the frame for id when resident, marking it
// recently used for the CLOCK policy, plus a pointer to the slot's
// CLOCK reference bit, letting the machine's memoized fast path mark
// later hits on the same page recently-used without re-running the
// resident lookup. It is the EPC's one residency probe.
// The pointer — like the frame pointer, which aliases the slot arena —
// is valid only until the page leaves the EPC or the slot table is
// rebuilt (see SetResizeHook); the machine's TLB-shootdown and resize
// hooks bound both lifetimes.
func (e *EPC) LookupRef(id mem.PageID) (*mem.Frame, *bool, bool) {
	idx, ok := e.resident.get(id)
	if !ok {
		return nil, nil, false
	}
	s := &e.slots[idx]
	s.referenced = true
	return &e.frames[idx], &s.referenced, true
}

// nextJitter returns a small deterministic latency perturbation in
// [0, 1/8 of base), so op-latency distributions are non-degenerate as
// in the ftrace samples of Appendix A.
func (e *EPC) nextJitter(base uint64) uint64 {
	e.jitter ^= e.jitter << 13
	e.jitter ^= e.jitter >> 7
	e.jitter ^= e.jitter << 17
	if base < 8 {
		return 0
	}
	return e.jitter % (base / 8)
}

func (e *EPC) tick() {
	if e.timelineEvery == 0 {
		return
	}
	e.opsSinceTick++
	if e.opsSinceTick < e.timelineEvery {
		return
	}
	e.opsSinceTick = 0
	e.timeline = append(e.timeline, TimelineEvent{
		Cycle:     e.clockRef.Cycles(),
		Allocs:    e.counters.Get(perf.EPCAllocs),
		Evictions: e.counters.Get(perf.EPCEvictions),
		LoadBacks: e.counters.Get(perf.EPCLoadBacks),
	})
}

// AllocPage allocates a zeroed EPC page for id (the EAUG path /
// sgx_alloc_page), evicting a batch first when the EPC is full. It
// panics if the page is already resident — callers must Lookup first.
// A full EPC with no evictable page yields ErrEPCExhausted.
func (e *EPC) AllocPage(clk *cycles.Clock, costs *cycles.CostModel, id mem.PageID) (*mem.Frame, error) {
	if _, ok := e.resident.get(id); ok {
		panic(fmt.Sprintf("epc: AllocPage of resident page (%v)", id))
	}
	if len(e.free) == 0 {
		if err := e.evictBatch(clk, costs); err != nil {
			return nil, err
		}
	}
	idx := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.slots[idx] = slot{id: id, referenced: true, used: true}
	e.resident.put(id, idx)
	f := &e.frames[idx]
	f.Data = [mem.PageSize]byte{} // arena frames carry a prior occupant's data

	lat := costs.EPCAlloc + e.nextJitter(costs.EPCAlloc)
	clk.Advance(lat)
	e.ops[OpAlloc].add(lat)
	e.counters.Inc(perf.EPCAllocs)
	e.tick()
	return f, nil
}

// evictBatch writes back BatchEvictPages victims chosen by CLOCK, or
// every resident page when fewer are resident, one EWB at a time.
func (e *EPC) evictBatch(clk *cycles.Clock, costs *cycles.CostModel) error {
	for n := min(BatchEvictPages, e.resident.len()); n > 0; n-- {
		if err := e.evictOne(clk, costs); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim runs the CLOCK sweep: clear reference bits until an
// unreferenced used slot is found. Two full sweeps guarantee a victim
// whenever any page is resident; -1 means nothing is evictable.
func (e *EPC) pickVictim() int {
	for sweep := 0; sweep < 2*e.capacity; sweep++ {
		s := &e.slots[e.hand]
		cur := e.hand
		e.hand++
		if e.hand == e.capacity {
			e.hand = 0
		}
		if !s.used {
			continue
		}
		if s.referenced {
			s.referenced = false
			continue
		}
		return cur
	}
	return -1
}

func (e *EPC) evictOne(clk *cycles.Clock, costs *cycles.CostModel) error {
	idx := e.pickVictim()
	if idx < 0 {
		return ErrEPCExhausted
	}
	return e.sealOut(clk, costs, idx)
}

// sealOut is the EWB path — the one body every eviction (batch,
// forced, ballooning) runs — for the page in slot idx: seal it to the
// untrusted store through the EPC's long-lived crypt batch, update the
// integrity tree, free the slot, charge the driver latency and fire
// the eviction hook.
func (e *EPC) sealOut(clk *cycles.Clock, costs *cycles.CostModel, idx int) error {
	s := &e.slots[idx]
	id := s.id

	ver := e.versions.get(id) + 1
	e.versions.set(id, ver)
	sp := e.backing.Reserve()
	if sp == nil {
		sp = &mem.SealedPage{}
	}
	e.crypt.SealPageInto(sp, id, ver, &e.frames[idx])
	e.backing.Put(sp)
	if e.tree != nil {
		if err := e.tree.Update(id, sp.MAC); err != nil {
			return fmt.Errorf("epc: integrity tree: %w", err)
		}
		clk.Advance(uint64(e.tree.UncachedLevels()) * costs.TreeLevel)
	}

	*s = slot{}
	e.resident.del(id)
	e.free = append(e.free, idx)

	// The driver spends the full EWB latency (recorded for Figure 7),
	// but most of it overlaps execution: evictions run in 16-page
	// batches ahead of demand, so the faulting thread only pays the
	// synchronous share.
	lat := costs.EWBPage + e.nextJitter(costs.EWBPage)
	share := costs.AsyncEvictShare
	if share <= 0 || share > 1 {
		share = 1
	}
	clk.Advance(cycles.SatU64(float64(lat) * share))
	e.ops[OpEWB].add(lat)
	e.counters.Inc(perf.EPCEvictions)
	if e.onEvict != nil {
		e.onEvict(id)
	}
	e.tick()
	return nil
}

// EvictPage forces the page for id out of the EPC through the normal
// EWB path, reporting whether it was resident. Tests use it (through
// the machine's ForceEvict) to place a chosen victim in the untrusted
// store deterministically.
func (e *EPC) EvictPage(clk *cycles.Clock, costs *cycles.CostModel, id mem.PageID) (bool, error) {
	idx, ok := e.resident.get(id)
	if !ok {
		return false, nil
	}
	if err := e.sealOut(clk, costs, idx); err != nil {
		return false, err
	}
	return true, nil
}

// MinCapacity is the smallest EPC capacity (in pages) the model
// supports: one eviction batch plus one page.
const MinCapacity = BatchEvictPages + 1

// Resize changes the EPC capacity to newCapacity pages (clamped to at
// least MinCapacity), modelling the OS ballooning the EPC mid-run.
// Shrinking evicts pages through the normal EWB path until the
// resident set fits; growing adds free slots. Either way the CLOCK
// hand restarts at slot 0. The EPCResizes counter records the event.
func (e *EPC) Resize(clk *cycles.Clock, costs *cycles.CostModel, newCapacity int) error {
	if newCapacity < MinCapacity {
		newCapacity = MinCapacity
	}
	if newCapacity == e.capacity {
		return nil
	}
	for e.resident.len() > newCapacity {
		if err := e.evictOne(clk, costs); err != nil {
			return err
		}
	}
	// Rebuild the slot table (and its frame arena) at the new
	// capacity, compacting resident pages in slot order so the rebuild
	// is deterministic.
	newSlots := make([]slot, newCapacity)
	newFrames := make([]mem.Frame, newCapacity)
	newResident := newPageIdx(newCapacity)
	next := 0
	for i := range e.slots {
		if e.slots[i].used {
			newSlots[next] = e.slots[i]
			newFrames[next] = e.frames[i]
			newResident.put(e.slots[i].id, next)
			next++
		}
	}
	free := make([]int, 0, newCapacity-next)
	for i := newCapacity - 1; i >= next; i-- {
		free = append(free, i)
	}
	e.slots = newSlots
	e.frames = newFrames
	e.resident = newResident
	e.free = free
	e.capacity = newCapacity
	e.hand = 0
	e.counters.Inc(perf.EPCResizes)
	if e.onResize != nil {
		e.onResize()
	}
	return nil
}

// loadBack performs the ELDU path: fetch the sealed page from the
// untrusted store, decrypt, verify its MAC and version, and install it
// in a free EPC slot.
func (e *EPC) loadBack(clk *cycles.Clock, costs *cycles.CostModel, id mem.PageID, sp *mem.SealedPage) (*mem.Frame, error) {
	if len(e.free) == 0 {
		if err := e.evictBatch(clk, costs); err != nil {
			return nil, err
		}
	}
	// Peek the slot the page would land in and decrypt straight into
	// its arena frame; the slot is only claimed on success, so a
	// verification failure leaves the EPC state untouched (the dirtied
	// free frame is zeroed by the next AllocPage).
	idx := e.free[len(e.free)-1]
	f := &e.frames[idx]
	if e.tree != nil {
		if err := e.tree.Verify(id, sp.MAC); err != nil {
			return nil, err
		}
		clk.Advance(uint64(e.tree.UncachedLevels()) * costs.TreeLevel)
	}
	if err := e.crypt.UnsealPage(sp, e.versions.get(id), f); err != nil {
		return nil, err
	}
	e.free = e.free[:len(e.free)-1]
	e.slots[idx] = slot{id: id, referenced: true, used: true}
	e.resident.put(id, idx)
	e.backing.Delete(id)

	lat := costs.ELDUPage + e.nextJitter(costs.ELDUPage)
	clk.Advance(lat)
	e.ops[OpELDU].add(lat)
	e.counters.Inc(perf.EPCLoadBacks)
	e.tick()
	return f, nil
}

// Fault handles an EPC page fault for id (the sgx_do_fault path): the
// page is either loaded back from the untrusted store or, on first
// touch, allocated fresh. The returned bool reports whether a
// load-back occurred (as opposed to a demand allocation). A page that
// was sealed out but is no longer in the backing store was dropped by
// the untrusted OS: that is ErrPageLost, not a fresh allocation.
func (e *EPC) Fault(clk *cycles.Clock, costs *cycles.CostModel, id mem.PageID) (*mem.Frame, bool, error) {
	if _, ok := e.resident.get(id); ok {
		panic(fmt.Sprintf("epc: Fault on resident page (%v)", id))
	}
	start := clk.Cycles()
	lat := costs.FaultOverhead + e.nextJitter(costs.FaultOverhead)
	clk.Advance(lat)

	var f *mem.Frame
	var loaded bool
	var err error
	if sp := e.backing.Get(id); sp != nil {
		f, err = e.loadBack(clk, costs, id, sp)
		loaded = true
	} else if e.versions.get(id) > 0 {
		return nil, false, fmt.Errorf("%w (%v)", ErrPageLost, id)
	} else {
		f, err = e.AllocPage(clk, costs, id)
	}
	if err != nil {
		return nil, false, err
	}
	e.ops[OpFault].add(clk.Cycles() - start)
	return f, loaded, nil
}

// RemoveEnclave discards every page (resident or sealed) belonging to
// the enclave, invalidating residual TLB entries and cache lines for
// the resident ones.
func (e *EPC) RemoveEnclave(enclave uint32) {
	// Walk the slot table (fixed order) rather than the resident map:
	// the remove hook fires per page, and hook-visible side effects
	// (TLB shootdowns, cache invalidations, future tracing) must not
	// inherit map iteration order.
	for idx := range e.slots {
		s := &e.slots[idx]
		if !s.used || s.id.Enclave != enclave {
			continue
		}
		id := s.id
		*s = slot{}
		e.resident.del(id)
		e.free = append(e.free, idx)
		if e.onRemove != nil {
			e.onRemove(id)
		}
	}
	e.backing.DropEnclave(enclave)
	e.verScratch = e.versions.dropEnclave(enclave, e.verScratch)
}
