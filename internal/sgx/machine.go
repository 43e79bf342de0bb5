// Package sgx ties the simulated substrates together into a machine
// with three execution modes — Vanilla, Native and LibOS — matching
// Table 1 of the paper.
//
// A Machine owns the EPC, the MEE, the shared LLC, the untrusted
// memory, and the performance-counter bank. Threads (each with its own
// dTLB and cycle clock) issue memory accesses against the machine;
// every access walks the full hierarchy: dTLB lookup, page walk with
// EPCM verification, EPC fault handling with AEX, LLC lookup with MEE
// charges for enclave lines. The counter explosions the paper reports
// are emergent behaviour of this path.
package sgx

import (
	"errors"
	"fmt"
	"strings"

	"sgxgauge/internal/cache"
	"sgxgauge/internal/chaos"
	"sgxgauge/internal/cycles"
	"sgxgauge/internal/enclave"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// Mode is the execution mode of Table 1.
type Mode int

const (
	// Vanilla executes without SGX support.
	Vanilla Mode = iota
	// Native executes inside SGX after porting (explicit ECALLs).
	Native
	// LibOS executes unmodified under a library OS shim.
	LibOS
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case Vanilla:
		return "Vanilla"
	case Native:
		return "Native"
	case LibOS:
		return "LibOS"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode resolves a mode name (case-insensitively). Unknown names
// yield an error listing the valid ones, so a mistyped wire request
// reports what would have worked.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "vanilla":
		return Vanilla, nil
	case "native":
		return Native, nil
	case "libos":
		return LibOS, nil
	}
	return 0, fmt.Errorf("sgx: unknown mode %q (valid: Vanilla, Native, LibOS)", s)
}

// MarshalText encodes the mode as its paper name, making Mode fields
// render as "Native" rather than an opaque integer in JSON.
func (m Mode) MarshalText() ([]byte, error) {
	switch m {
	case Vanilla, Native, LibOS:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("sgx: cannot encode unknown mode %d", int(m))
}

// UnmarshalText decodes a mode name via ParseMode.
func (m *Mode) UnmarshalText(text []byte) error {
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// PaperEPCPages is the EPC size of the paper's platform: 92 MB.
const PaperEPCPages = 92 * 1024 * 1024 / mem.PageSize

// DefaultEPCPages is the default simulated EPC size. The suite keeps
// every footprint proportional to the EPC, so a small EPC preserves
// all Low/Medium/High ratios while running quickly. 512 pages = 2 MiB.
const DefaultEPCPages = 512

// LibOSEnclaveFactor is the ratio of the LibOS enclave size to the EPC
// size: the paper uses a 4 GB Graphene enclave against a 92 MB EPC
// (~44.5x), which is what produces the ~1M-eviction startup storm of
// Figure 6a.
const LibOSEnclaveFactor = 44

// treeCachedLevels is how many top levels of the integrity tree
// (Config.IntegrityTree) are held on-die and so cost nothing to walk.
const treeCachedLevels = 4

// Config parameterizes a Machine. The zero value is usable: every
// field has a sensible default derived from the EPC size, mirroring
// the proportions of the paper's Xeon E-2186G (Table 3).
type Config struct {
	// EPCPages is the EPC capacity in 4 KiB pages (default
	// DefaultEPCPages; the paper's hardware has PaperEPCPages).
	EPCPages int `json:"epc_pages,omitempty"`
	// Seed drives all deterministic key generation.
	Seed uint64 `json:"seed,omitempty"`
	// Costs is the cycle cost model (default cycles.DefaultCosts).
	Costs cycles.CostModel `json:"costs,omitempty"`
	// TLBEntries and TLBWays size each thread's dTLB. The default
	// scales with the EPC: entries = 2x EPCPages (4-way). On the
	// paper's machine the ~1.5K-entry STLB covers each workload's
	// *hot set* in Vanilla mode while SGX's transition flushes keep
	// it cold — that warm-vs-cold contrast is what produces the
	// 8-90x dTLB-miss ratios of Figures 2/5/8. The suite's
	// scaled-down workloads have flatter locality than the real
	// applications, so preserving the contrast requires the scaled
	// TLB to reach the scaled footprints.
	TLBEntries int `json:"tlb_entries,omitempty"`
	TLBWays    int `json:"tlb_ways,omitempty"`
	// LLCBytes and LLCWays size the shared LLC. The default scales
	// with the EPC (EPC bytes / 2, 16-way). Like the TLB default, the
	// proportion is chosen so the LLC covers a Vanilla run's hot set
	// the way the paper machine's 12 MB LLC covers the real
	// applications' — EPC eviction then visibly costs extra LLC
	// misses, reproducing the 1.8-3x LLC-miss ratios of Table 4.
	LLCBytes int `json:"llc_bytes,omitempty"`
	LLCWays  int `json:"llc_ways,omitempty"`
	// Switchless enables switchless OCALLs handled by proxy threads
	// (paper §5.6).
	Switchless bool `json:"switchless,omitempty"`
	// IntegrityTree maintains a Merkle tree over evicted-page MACs,
	// making EWB/ELDU pay per uncached tree level (the integrity
	// structures §2.2 describes; VAULT's target); the top
	// treeCachedLevels levels are held on-die. Off by default:
	// the flat MAC+version scheme already provides
	// integrity+freshness in the model.
	IntegrityTree bool `json:"integrity_tree,omitempty"`
	// Chaos, when non-nil and enabled, attaches a deterministic fault
	// injector modelling an adversarial OS (package chaos): forced
	// AEX storms, EPC ballooning, attacks on evicted pages, and
	// transient transition failures.
	Chaos *chaos.Config `json:"chaos,omitempty"`
	// SlowPath routes every memory access through the straight-line
	// reference implementation (no memoization, no counter sharding,
	// no batched charging). Simulated results are identical to the
	// default fast path — the differential tests exist to prove it —
	// so the only reason to set this is those tests.
	SlowPath bool `json:"slow_path,omitempty"`
}

// WithDefaults returns the effective configuration: c with every zero
// field replaced by its default, as NewMachine applies them. Two
// configurations with equal effective values boot identical machines.
func (c Config) WithDefaults() Config {
	if c.EPCPages == 0 {
		c.EPCPages = DefaultEPCPages
	}
	if c.Costs == (cycles.CostModel{}) {
		c.Costs = cycles.DefaultCosts()
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 2 * c.EPCPages
		if c.TLBEntries < 64 {
			c.TLBEntries = 64
		}
	}
	if c.TLBWays == 0 {
		c.TLBWays = 4
	}
	if c.LLCBytes == 0 {
		c.LLCBytes = c.EPCPages * mem.PageSize / 2
		if c.LLCBytes < 64*1024 {
			c.LLCBytes = 64 * 1024
		}
	}
	if c.LLCWays == 0 {
		c.LLCWays = 16
	}
	return c
}

// untrustedBase is where the untrusted heap starts.
const untrustedBase uint64 = 0x0000_1000_0000

// enclaveRegion is where enclave address ranges start; successive
// enclaves are placed at enclaveStride intervals.
const (
	enclaveRegion uint64 = 0x7000_0000_0000
	enclaveStride uint64 = 0x0000_4000_0000 // 1 GiB of VA per enclave slot
)

// Machine is one simulated SGX platform.
type Machine struct {
	cfg      Config
	Costs    cycles.CostModel
	Counters *perf.Counters
	Engine   *mee.Engine
	Backing  *mem.BackingStore
	EPC      *epc.EPC
	LLC      *cache.LLC

	untrusted     map[uint64]*mem.Frame // vpn -> frame
	untrustedNext uint64

	enclaves    []*enclave.Enclave
	nextEnclave uint32
	enclaveNext uint64 // next free enclave VA (stride-aligned cursor)

	threads        []*Thread
	pollutionPhase uint64
	switchlessSeq  uint64
	tracer         func(TraceEvent)

	// chaos, when non-nil, is the adversarial-OS fault injector;
	// rollbackStash keeps the stale sealed pages it replays.
	chaos         *chaos.Injector
	rollbackStash map[mem.PageID]*mem.SealedPage

	// fastWords enables the word fast path and bulk extent charging:
	// true iff the machine runs neither the SlowPath reference nor a
	// chaos injector (chaos draws are consumed per access, so chaotic
	// machines replay extents access by access).
	fastWords bool
}

// switchlessFallback is how often a switchless call finds the proxy
// queue full and falls back to a real OCALL (1 in every N calls). The
// proxy pool is finite, so under load a fraction of calls still exits
// the enclave — which is why the paper measures a 60% (not 100%)
// dTLB-miss reduction in switchless mode (§5.6).
const switchlessFallback = 4

// admitSwitchless reports whether the next OCALL can be handled by a
// proxy thread; every switchlessFallback-th call overflows the queue.
func (m *Machine) admitSwitchless() bool {
	m.switchlessSeq++
	return m.switchlessSeq%switchlessFallback != 0
}

// transitionFault consults the chaos injector on an enclave
// transition and, when a transient failure is injected, raises it as
// a recoverable TransientError (the enclave is not aborted; a retry
// of the run may succeed).
func (m *Machine) transitionFault(op string) {
	if m.chaos == nil || !m.chaos.Fire(chaos.TransitionFault) {
		return
	}
	m.Counters.Inc(perf.TransitionFaults)
	panic(Fault(&TransientError{Op: op, Cause: chaos.ErrTransition}))
}

// NewMachine boots a machine with the given configuration.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.WithDefaults()
	counters := &perf.Counters{}
	engine := mee.New(cfg.Seed)
	backing := mem.NewBackingStore()
	m := &Machine{
		cfg:           cfg,
		Costs:         cfg.Costs,
		Counters:      counters,
		Engine:        engine,
		Backing:       backing,
		EPC:           epc.New(cfg.EPCPages, engine, backing, counters),
		LLC:           cache.NewLLC(cfg.LLCBytes, cfg.LLCWays),
		untrusted:     make(map[uint64]*mem.Frame),
		untrustedNext: untrustedBase,
		nextEnclave:   1, // enclave 0 is reserved for untrusted memory
		enclaveNext:   enclaveRegion,
	}
	if cfg.IntegrityTree {
		// Capacity covers every page that can ever be evicted: the
		// LibOS enclave alone measures 44x the EPC.
		m.EPC.SetIntegrityTree(mee.NewIntegrityTree(cfg.EPCPages*(LibOSEnclaveFactor+20), treeCachedLevels))
	}
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		m.chaos = chaos.New(*cfg.Chaos)
		m.rollbackStash = make(map[mem.PageID]*mem.SealedPage)
	}
	m.fastWords = !cfg.SlowPath && m.chaos == nil
	m.wireEPC()
	return m
}

// wireEPC installs the machine's EPC hooks. NewMachine and clone both
// call it, so a cloned machine's EPC reports to the clone, never to
// the machine it was copied from.
func (m *Machine) wireEPC() {
	m.EPC.SetEvictHook(func(id mem.PageID) {
		if m.tracer != nil {
			// Evictions happen on the driver's behalf; no issuing
			// thread is attributed.
			m.tracer(TraceEvent{Kind: TraceEvict, Thread: -1, Addr: id.VPN * mem.PageSize})
		}
		m.shootdown(id)
		// The page now sits sealed in untrusted memory — exactly
		// where an adversarial OS can reach it.
		if m.chaos != nil && id.Enclave != 0 && m.chaos.Fire(chaos.MemTamper) {
			m.tamperSealed(id)
		}
	})
	// Teardown discards pages without an EWB, but the stale
	// translations and cache lines must go the same way.
	m.EPC.SetRemoveHook(m.shootdown)
	// A resize rebuilds the EPC slot table, dangling the reference-bit
	// pointers the per-thread page memos hold (see epc.LookupRef).
	m.EPC.SetResizeHook(func() {
		for _, t := range m.threads {
			t.memoClear()
		}
	})
}

// clone returns an independent copy of the machine that evolves
// exactly as m would from here on: every substrate is copied (the
// EPC, LLC and counters by value; sealed pages shared copy-on-write)
// and the MEE engine is shared because its keys never change. Threads
// are not copied; the caller rebinds them (see Env.Clone). A machine
// something outside it observes — a tracer, a chaos injector — does
// not clone. clone only reads m, so concurrent clones of an idle
// machine are safe.
func (m *Machine) clone() *Machine {
	if m.tracer != nil || m.chaos != nil {
		panic("sgx: clone of a traced or chaotic machine")
	}
	counters := m.Counters.Clone()
	backing := m.Backing.Clone()
	c := &Machine{
		cfg:            m.cfg,
		Costs:          m.Costs,
		Counters:       counters,
		Engine:         m.Engine,
		Backing:        backing,
		EPC:            m.EPC.Clone(backing, counters),
		LLC:            m.LLC.Clone(),
		untrusted:      make(map[uint64]*mem.Frame, len(m.untrusted)),
		untrustedNext:  m.untrustedNext,
		nextEnclave:    m.nextEnclave,
		enclaveNext:    m.enclaveNext,
		pollutionPhase: m.pollutionPhase,
		switchlessSeq:  m.switchlessSeq,
		fastWords:      m.fastWords,
	}
	//sgxlint:ignore determinism each key gets its own frame copy and nothing else happens; the final map is order-independent
	for vpn, f := range m.untrusted {
		cp := *f
		c.untrusted[vpn] = &cp
	}
	for _, e := range m.enclaves {
		c.enclaves = append(c.enclaves, e.Clone())
	}
	c.wireEPC()
	return c
}

// Chaos returns the machine's fault injector, or nil when chaos is
// not configured.
func (m *Machine) Chaos() *chaos.Injector { return m.chaos }

// tamperSealed mounts one untrusted-memory attack on the sealed page
// for id, chosen deterministically by the injector. The damage is
// detected later — on load-back (MAC mismatch, rollback) or fault-in
// (dropped page) — exactly like a real tamper attempt.
func (m *Machine) tamperSealed(id mem.PageID) {
	if sp := m.Backing.Get(id); sp != nil {
		m.tamper(sp, m.chaos.NextTamper())
	}
}

// tamper mounts the given attack on the stored sealed page sp.
func (m *Machine) tamper(sp *mem.SealedPage, kind chaos.TamperKind) {
	id := sp.ID
	switch kind {
	case chaos.TamperBitFlip:
		m.Engine.Materialize(sp)
		sp.Ciphertext[m.chaos.PickOffset(mem.PageSize)] ^= 1 << uint(m.chaos.PickOffset(8))
	case chaos.TamperMAC:
		sp.MAC[m.chaos.PickOffset(len(sp.MAC))] ^= 1 << uint(m.chaos.PickOffset(8))
	case chaos.TamperDrop:
		m.Backing.Delete(id)
	case chaos.TamperRollback:
		if stale, ok := m.rollbackStash[id]; ok {
			// Replay the stale version captured on an earlier
			// eviction of this page. Both copies are deep: the store
			// recycles and reseals its entries in place, which must
			// not reach the stash.
			m.Backing.Put(stale.Copy())
		} else {
			// First strike on this page: capture the current sealed
			// image to replay on a later eviction.
			m.rollbackStash[id] = sp.Copy()
		}
	}
}

// shootdown invalidates every trace a page leaves in the translation
// and cache hierarchy: its dTLB entries in all threads and its lines
// in the LLC. Called when a page leaves the EPC, whether evicted by
// the driver or discarded at enclave teardown — a later reuse of the
// VA range must start cold, not hit stale state.
func (m *Machine) shootdown(id mem.PageID) {
	// TLB shootdown: translations for the departed page vanish, along
	// with any memoized resolution of them.
	for _, t := range m.threads {
		t.tlb.Evict(id.VPN)
		t.memoInvalidate(id.VPN)
	}
	// The page's cache lines leave the LLC as the MEE encrypts the
	// page out to untrusted memory; re-touching it after a load-back
	// misses again.
	m.LLC.InvalidateRange(id.VPN*mem.PageSize/mem.LineSize, mem.PageSize/mem.LineSize)
}

// Config returns the effective (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// EPCBytes returns the EPC capacity in bytes.
func (m *Machine) EPCBytes() uint64 {
	return uint64(m.cfg.EPCPages) * mem.PageSize
}

// AllocUntrusted reserves n bytes of untrusted memory with the given
// power-of-two alignment (0 means 8) and returns its base address.
func (m *Machine) AllocUntrusted(n, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	addr := (m.untrustedNext + align - 1) &^ (align - 1)
	m.untrustedNext = addr + n
	return addr
}

// enclaveSpan returns the stride-aligned VA footprint of an enclave
// of sizePages pages.
func enclaveSpan(sizePages int) uint64 {
	need := (uint64(sizePages)*mem.PageSize + enclaveStride - 1) / enclaveStride
	if need == 0 {
		need = 1
	}
	return need * enclaveStride
}

// newEnclave reserves an ID and address range for an enclave of
// sizePages pages. Ranges come from a cumulative cursor, not a
// per-enclave stride multiple: an enclave spanning several stride
// slots (a LibOS enclave is ~44x the EPC) must push the next
// enclave's base past its whole range, or the ranges overlap.
func (m *Machine) newEnclave(sizePages int) *enclave.Enclave {
	id := m.nextEnclave
	m.nextEnclave++
	base := m.enclaveNext
	m.enclaveNext = base + enclaveSpan(sizePages)
	e := enclave.New(id, base, sizePages)
	m.enclaves = append(m.enclaves, e)
	return e
}

// enclaveFor returns the enclave owning addr, or nil for untrusted
// addresses.
func (m *Machine) enclaveFor(addr uint64) *enclave.Enclave {
	if addr < enclaveRegion {
		return nil
	}
	for _, e := range m.enclaves {
		if e.Contains(addr) {
			return e
		}
	}
	return nil
}

// DestroyEnclave releases every EPC and backing page of the enclave.
// The EPC's remove hook shoots down the pages' TLB entries and cache
// lines, so a later enclave reusing the VA range starts cold instead
// of panicking on a stale TLB hit.
func (m *Machine) DestroyEnclave(e *enclave.Enclave) {
	m.EPC.RemoveEnclave(e.ID)
	for i, cur := range m.enclaves {
		if cur == e {
			m.enclaves = append(m.enclaves[:i], m.enclaves[i+1:]...)
			break
		}
	}
	// Reclaim the VA slot when the destroyed enclave was the topmost
	// allocation (the common create→destroy→create service pattern);
	// the teardown shootdown above makes the reuse safe.
	if e.Base+enclaveSpan(e.SizePages) == m.enclaveNext {
		m.enclaveNext = e.Base
	}
}

// lookupResident resolves addr to its backing frame if the page is
// resident right now, marking EPC pages recently-used for CLOCK. For
// enclave pages it also returns the slot's reference-bit pointer for
// the caller's memo. ok is false when the page is not resident — which
// after a TLB hit means the entry is stale (it outlived an eviction
// performed without the machine's shootdown, e.g. under a test hook);
// callers must then fall back to the page-walk path rather than trust
// the stale translation.
func (m *Machine) lookupResident(enc *enclave.Enclave, addr uint64) (*mem.Frame, *bool, bool) {
	if enc != nil {
		return m.EPC.LookupRef(enc.PageID(addr))
	}
	f := m.untrusted[mem.PageNumber(addr)]
	return f, nil, f != nil
}

// ensureResident makes the page containing addr resident, handling
// EPC faults (with AEX when t executes inside an enclave) and
// demand allocation of untrusted pages. For an enclave page it also
// returns the slot's CLOCK reference-bit pointer (see epc.LookupRef)
// for the caller's memo; untrusted pages have none. A paging or
// integrity failure aborts the owning enclave and returns the typed
// AbortError; the machine itself stays healthy.
func (m *Machine) ensureResident(t *Thread, enc *enclave.Enclave, addr uint64) (*mem.Frame, *bool, error) {
	c := &m.Costs
	if enc == nil {
		vpn := mem.PageNumber(addr)
		if f := m.untrusted[vpn]; f != nil {
			return f, nil, nil
		}
		// First touch of an untrusted page: minor page fault.
		t.shard.Inc(perf.PageFaults)
		t.Clock.Advance(c.FaultOverhead)
		f := new(mem.Frame)
		m.untrusted[vpn] = f
		return f, nil, nil
	}

	id := enc.PageID(addr)
	if f, ref, ok := m.EPC.LookupRef(id); ok {
		return f, ref, nil
	}
	// EPC fault. If the faulting thread is executing inside the
	// enclave this raises an asynchronous exit, which flushes the
	// TLB (paper §2.3 and Appendix B.3).
	t.shard.Inc(perf.PageFaults)
	m.trace(TraceFault, t, mem.PageBase(addr))
	if t.InEnclave() {
		t.shard.Inc(perf.AEXs)
		m.trace(TraceAEX, t, 0)
		t.Clock.Advance(c.AEX)
		t.flushTLB()
	}
	_, loaded, err := m.EPC.Fault(&t.Clock, c, id)
	if err != nil {
		return nil, nil, m.abortEnclave(enc, fmt.Errorf("page %v: %w", id, err))
	}
	if loaded {
		m.trace(TraceLoadBack, t, mem.PageBase(addr))
	}
	f, ref, _ := m.EPC.LookupRef(id)
	return f, ref, nil
}

// abortEnclave poisons the enclave with the given cause and returns
// the AbortError subsequent accesses will keep reporting. Integrity
// violations — the tamper/replay/drop vectors §2.2's MEE exists to
// detect — are counted separately from resource failures.
func (m *Machine) abortEnclave(enc *enclave.Enclave, cause error) error {
	if !enc.Aborted() {
		enc.Abort(cause)
		if errors.Is(cause, mee.ErrMACMismatch) || errors.Is(cause, mee.ErrRollback) ||
			errors.Is(cause, epc.ErrPageLost) {
			m.Counters.Inc(perf.IntegrityAborts)
		}
	}
	return &AbortError{EnclaveID: enc.ID, Cause: enc.AbortCause()}
}

// ForceEvict pushes the enclave page containing addr out of the EPC
// through the normal EWB path, reporting whether it was resident.
// Tests use it to park a chosen victim in the untrusted store
// deterministically instead of thrashing and hoping.
func (m *Machine) ForceEvict(t *Thread, addr uint64) bool {
	enc := m.enclaveFor(addr)
	if enc == nil {
		return false
	}
	evicted, err := m.EPC.EvictPage(&t.Clock, &m.Costs, enc.PageID(addr))
	if err != nil {
		panic(fmt.Sprintf("sgx: ForceEvict of %#x: %v", addr, err))
	}
	return evicted
}

// chargePageLoad models the cache-visible cost of loading one enclave
// page at build time (EADD + EEXTEND): the page is copied and hashed
// through the LLC, paying MEE latency per line. This launch traffic is
// part of why Native-mode runs show inflated LLC-miss and stall-cycle
// counts even at the Low setting (Table 4).
func (m *Machine) chargePageLoad(t *Thread, base uint64) {
	c := &m.Costs
	first := mem.LineNumber(base)
	hits, misses := m.LLC.AccessRun(first, mem.PageSize/mem.LineSize)
	if hits != 0 {
		t.shard.Add(perf.LLCHits, hits)
		t.Clock.Advance(hits * c.LLCHit)
	}
	if misses != 0 {
		// Plain DRAM latency: the MEE work of moving the page into
		// the EPC is already covered by the flat EPCAlloc/EWB charges
		// of the paging path.
		t.shard.Add(perf.LLCMisses, misses)
		t.Clock.Advance(misses * c.DRAMAccess)
		t.shard.Add(perf.StallCycles, misses*c.DRAMAccess)
	}
}

// pageOp selects what a single-page access does with the resolved
// frame bytes.
type pageOp int

const (
	opRead pageOp = iota
	opWrite
	opFill
)

// chaosStep runs the per-access fault-injection draws. Both the fast
// and the slow access path call it, so the injector's deterministic
// PRNG stream is consumed identically regardless of which path runs.
// A balloon failure during an enclave access aborts the enclave;
// outside any enclave the machine survives and the BalloonFailures
// counter records the partial resize.
func (m *Machine) chaosStep(t *Thread, enc *enclave.Enclave) error {
	c := &m.Costs
	if enc != nil && t.InEnclave() && m.chaos.Fire(chaos.AEXStorm) {
		// Injected interrupt storm: the OS forces an
		// asynchronous exit, flushing the thread's TLB (§2.3).
		m.Counters.Inc(perf.InjectedAEXs)
		m.Counters.Inc(perf.AEXs)
		m.trace(TraceAEX, t, 0)
		t.Clock.Advance(c.AEX)
		t.flushTLB()
	}
	if m.chaos.Fire(chaos.EPCBalloon) {
		// The OS balloons the EPC to a new capacity; Resize
		// evicts through the normal EWB path when shrinking.
		target := m.chaos.BalloonTarget(m.cfg.EPCPages, epc.MinCapacity)
		if err := m.EPC.Resize(&t.Clock, c, target); err != nil {
			m.Counters.Inc(perf.BalloonFailures)
			if enc != nil {
				return m.abortEnclave(enc, err)
			}
		}
	}
	return nil
}

// pageOpDispatch routes one single-page access to the fast path or,
// under Config.SlowPath, the straight-line reference implementation.
// For op opRead/opWrite, p holds the n payload bytes; for opFill, p is
// nil and v is the fill byte.
func (m *Machine) pageOpDispatch(t *Thread, addr, n uint64, p []byte, v byte, op pageOp) error {
	if m.cfg.SlowPath {
		return m.accessPageSlow(t, addr, n, p, v, op)
	}
	return m.accessPage(t, addr, n, p, v, op)
}

// accessPage performs one access confined to a single page. It
// returns a typed Fault error when the access hits an aborted
// enclave or trips an (injected or organic) failure.
//
// This is the simulator's hottest function; it stays cheap three ways,
// none of which may change simulated semantics (accessPageSlow is the
// straight-line reference, and TestFastSlowEquivalence holds the two
// to identical counters and cycles):
//
//   - counters go to the thread's perf.Shard (plain adds summed back
//     in by every Counters read) instead of the shared atomic bank;
//   - the thread's direct-mapped page memo caches the full
//     resolution of recently used pages (owning enclave, frame, CLOCK
//     reference bit), so repeat touches skip the enclave scan, the
//     TLB probe, and the EPC residency map. A memo hit implies a TLB
//     hit: entries die with their TLB entry (flush, shootdown, victim
//     displacement) and with the EPC slot table (resize);
//   - LLC line charges for a run of lines are batched (AccessRun) and
//     clock advances are accumulated per kind.
func (m *Machine) accessPage(t *Thread, addr, n uint64, p []byte, v byte, op pageOp) error {
	c := &m.Costs
	sh := t.shard
	sh.Inc(perf.Accesses)
	// Clock advances accumulate in pend and land in one Advance call
	// per stretch; pend is drained before any EPC operation so code
	// that reads the clock mid-access (the EPC timeline) sees exactly
	// the value the slow path produces.
	pend := c.Compute

	vpn := mem.PageNumber(addr)
	me := t.memoLookup(vpn)
	var enc *enclave.Enclave
	if me != nil {
		enc = me.enc
	} else {
		enc = m.enclaveFor(addr)
	}
	if enc != nil && enc.Aborted() {
		// Abort-page semantics: the poisoned enclave stays dead, but
		// the access fails with a typed error rather than the
		// process; other enclaves are untouched.
		t.Clock.Advance(pend)
		return &AbortError{EnclaveID: enc.ID, Cause: enc.AbortCause()}
	}
	if m.chaos != nil {
		t.Clock.Advance(pend)
		pend = 0
		if err := m.chaosStep(t, enc); err != nil {
			return err
		}
		// An injected flush, shootdown or resize invalidates memos
		// through the machine's hooks; re-consult rather than trust.
		me = t.memoLookup(vpn)
	}

	var frame *mem.Frame
	if me != nil {
		pend += c.TLBHit
		frame = me.frame
		if me.ref != nil {
			*me.ref = true // keep the CLOCK reference bit warm
		}
	} else {
		var ref *bool
		resolved := false
		if t.tlb.Lookup(vpn) {
			if f, r, ok := m.lookupResident(enc, addr); ok {
				pend += c.TLBHit
				frame, ref, resolved = f, r, true
			} else {
				// Stale TLB entry that outlived an eviction: drop it
				// and take the page-walk path below instead of
				// trusting the dead translation.
				t.tlb.Evict(vpn)
			}
		}
		if !resolved {
			sh.Inc(perf.DTLBMisses)
			walk := c.PageWalk
			if enc != nil {
				// The EPCM entry is verified while installing a TLB
				// entry for an EPC page (paper Figure 1).
				walk += c.EPCMCheck
			}
			sh.Add(perf.WalkCycles, walk)
			t.Clock.Advance(pend + walk)
			pend = 0
			var err error
			frame, ref, err = m.ensureResident(t, enc, addr)
			if err != nil {
				return err
			}
			if victim, evicted := t.tlb.Insert(vpn); evicted {
				// The displaced translation may be memoized; a memo
				// hit must keep implying a TLB hit.
				t.memoInvalidate(victim)
			}
		}
		t.memoStore(vpn, enc, frame, ref)
	}

	// LLC traffic. Enclave lines pay the MEE encryption/decryption
	// latency on their way between LLC and DRAM (paper §2.2).
	first := mem.LineNumber(addr)
	lines := mem.LineNumber(addr+n-1) - first + 1
	if lines == 1 {
		// The overwhelmingly common case: a word-sized access
		// touching one line.
		if m.LLC.Access(first) {
			sh.Inc(perf.LLCHits)
			pend += c.LLCHit
		} else {
			extra := c.DRAMAccess
			if enc != nil {
				extra += c.MEELine
			}
			sh.Inc(perf.LLCMisses)
			sh.Add(perf.StallCycles, extra)
			pend += extra
		}
	} else {
		hits, misses := m.LLC.AccessRun(first, lines)
		if hits != 0 {
			sh.Add(perf.LLCHits, hits)
			pend += hits * c.LLCHit
		}
		if misses != 0 {
			extra := c.DRAMAccess
			if enc != nil {
				extra += c.MEELine
			}
			sh.Add(perf.LLCMisses, misses)
			sh.Add(perf.StallCycles, misses*extra)
			pend += misses * extra
		}
	}
	t.Clock.Advance(pend)

	off := addr & (mem.PageSize - 1)
	switch op {
	case opRead:
		copy(p, frame.Data[off:off+n])
		sh.Add(perf.BytesRead, n)
	case opWrite:
		copy(frame.Data[off:], p)
		sh.Add(perf.BytesWritten, n)
	case opFill:
		s := frame.Data[off : off+n]
		for i := range s {
			s[i] = v
		}
		sh.Add(perf.BytesWritten, n)
	}
	return nil
}

// wordFast handles the hottest access shape — an aligned word-sized
// load or store (n ≤ 8, addr aligned to n, so no line or page span)
// whose page resolution is memoized — without the general path's
// dispatch layers and staging buffer. It replicates accessPage's
// memo-hit branch exactly: one access, one TLB-hit charge, one LLC
// line, identical counters and cycles. Anything else — memo miss,
// aborted enclave — returns nil with zero side effects and the caller
// falls back to the general path. Callers must check m.fastWords (no
// SlowPath, no chaos) and alignment first.
//
// The memo entry also remembers which lines of its page this path saw
// resident during the LLC's current Epoch. A repeat of such a line
// with the epoch unchanged is a proven hit: it is counted with
// LLC.NoteHits and the set probe is skipped. Only hits are bypassed,
// so the LLC's tags, replacement state and statistics end exactly as
// Access leaves them. Every other line goes to wordProbe, called last
// so that no value is live across it and the proven-hit path keeps
// everything in registers.
//
// The caller performs the data movement on the returned frame, which
// keeps the 8-byte staging buffer and memmove out of the loop.
func (m *Machine) wordFast(t *Thread, addr, n uint64, write bool) *mem.Frame {
	me := t.memoLookup(mem.PageNumber(addr))
	if me == nil || me.enc != nil && me.enc.Aborted() {
		return nil // the general path owns the exact abort error flow
	}
	line := mem.LineNumber(addr)
	bit := uint64(1) << (line % (mem.PageSize / mem.LineSize))
	if me.lines&bit == 0 || me.llcEpoch != m.LLC.Epoch() {
		return m.wordProbe(t, me, line, bit, n, write)
	}
	m.LLC.NoteHits(1)
	c := &m.Costs
	sh := t.shard
	sh.Inc(perf.Accesses)
	sh.Inc(perf.LLCHits)
	if write {
		sh.Add(perf.BytesWritten, n)
	} else {
		sh.Add(perf.BytesRead, n)
	}
	if me.ref != nil {
		*me.ref = true
	}
	t.Clock.Advance(c.Compute + c.TLBHit + c.LLCHit)
	return me.frame
}

// wordProbe charges a wordFast access whose line is not a proven hit
// through an LLC probe whose result — hit or fresh install — then
// joins the entry's proven lines (bit is the line's bit in the entry's
// mask).
func (m *Machine) wordProbe(t *Thread, me *memoEntry, line, bit, n uint64, write bool) *mem.Frame {
	c := &m.Costs
	sh := t.shard
	sh.Inc(perf.Accesses)
	pend := c.Compute + c.TLBHit
	if me.ref != nil {
		*me.ref = true
	}
	hit := m.LLC.Access(line)
	if e := m.LLC.Epoch(); e != me.llcEpoch {
		me.lines, me.llcEpoch = 0, e
	}
	me.lines |= bit
	if hit {
		sh.Inc(perf.LLCHits)
		pend += c.LLCHit
	} else {
		extra := c.DRAMAccess
		if me.enc != nil {
			extra += c.MEELine
		}
		sh.Inc(perf.LLCMisses)
		sh.Add(perf.StallCycles, extra)
		pend += extra
	}
	t.Clock.Advance(pend)
	if write {
		sh.Add(perf.BytesWritten, n)
	} else {
		sh.Add(perf.BytesRead, n)
	}
	return me.frame
}

// access performs a possibly page-spanning access, raising any Fault
// as a recoverable typed panic (see Protect): the Thread API the
// workloads program against has no error returns, and a faulted
// access cannot meaningfully continue the computation that issued it.
func (m *Machine) access(t *Thread, addr uint64, p []byte, write bool) {
	// Word-sized loads and stores never span a page; skip the
	// page-splitting loop for them.
	if len(p) > 0 && uint64(len(p)) <= mem.PageSize-addr&(mem.PageSize-1) {
		op := opRead
		if write {
			op = opWrite
		}
		if err := m.pageOpDispatch(t, addr, uint64(len(p)), p, 0, op); err != nil {
			panic(err.(Fault))
		}
		return
	}
	if err := m.tryAccess(t, addr, p, write); err != nil {
		panic(err.(Fault))
	}
}

// tryAccess is access with an ordinary error return, for callers that
// thread errors instead of unwinding.
func (m *Machine) tryAccess(t *Thread, addr uint64, p []byte, write bool) error {
	op := opRead
	if write {
		op = opWrite
	}
	for len(p) > 0 {
		pageOff := addr & (mem.PageSize - 1)
		chunk := int(mem.PageSize - pageOff)
		if chunk > len(p) {
			chunk = len(p)
		}
		if err := m.pageOpDispatch(t, addr, uint64(chunk), p[:chunk], 0, op); err != nil {
			return err
		}
		addr += uint64(chunk)
		p = p[chunk:]
	}
	return nil
}

// fill is the bulk Memset path: one simulated access per page run
// writes the fill byte straight into the backing frames, instead of
// staging thousands of small buffer writes through tryAccess. Faults
// unwind like access.
func (m *Machine) fill(t *Thread, addr uint64, v byte, n uint64) {
	for n > 0 {
		pageOff := addr & (mem.PageSize - 1)
		chunk := mem.PageSize - pageOff
		if chunk > n {
			chunk = n
		}
		if err := m.pageOpDispatch(t, addr, chunk, nil, v, opFill); err != nil {
			panic(err.(Fault))
		}
		addr += chunk
		n -= chunk
	}
}
