package sgx

import (
	"encoding/binary"
	"math"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/enclave"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/tlb"
)

// memoSlots is the size of the per-thread page memo, a direct-mapped
// table indexed by the low VPN bits: a lookup, store or invalidation
// touches exactly one slot. Consecutive pages never collide, so the
// few streams a workload interleaves (SVM's data and weight rows,
// Memcpy's source and destination) each keep their own slot. A power
// of two.
const memoSlots = 64

// memoEntry caches the complete resolution of one virtual page: its
// owning enclave (nil for untrusted pages), backing frame, and — for
// EPC pages — a pointer to the slot's CLOCK reference bit so memo
// hits keep marking the page recently-used. An entry is only valid
// while its TLB entry and EPC slot both live; see Thread.memoStore.
type memoEntry struct {
	// key is the entry's VPN biased by 1; 0 marks an invalid entry.
	// The entry is live only while gen equals the thread's memoGen.
	key   uint64
	enc   *enclave.Enclave
	frame *mem.Frame
	ref   *bool
	// lines has bit i set for each line i of this page the word fast
	// path saw resident in the LLC while its Epoch read llcEpoch.
	// While the epoch is unchanged no tag has moved, so a repeat of
	// any of those lines is a proven hit (see Machine.wordFast). A
	// page has exactly 64 lines.
	lines    uint64
	llcEpoch uint64
	gen      uint32
}

// Thread is one simulated hardware thread. Each thread owns a private
// dTLB and cycle clock; the LLC, EPC and counter bank are shared
// through the machine, and every thread counts straight into that
// bank. Threads are simulated sequentially, so none of this is
// concurrency-sensitive: the bank is plain state, like the rest of
// the machine.
type Thread struct {
	// ID distinguishes threads within an Env.
	ID int
	// Clock counts the cycles this thread has consumed.
	Clock cycles.Clock

	env          *Env
	tlb          *tlb.DTLB
	enclaveDepth int

	// memo is the page memo and memoGen its flush generation:
	// memoClear bumps memoGen, which invalidates every entry stored
	// under an earlier value (the scheme tlb.DTLB uses for flushes).
	memo    [memoSlots]memoEntry
	memoGen uint32
}

// memoLookup returns the memo entry for vpn, or nil: vpn's slot
// holds it only if the slot's key matches and it was stored under the
// current generation.
func (t *Thread) memoLookup(vpn uint64) *memoEntry {
	if e := &t.memo[vpn&(memoSlots-1)]; e.key == vpn+1 && e.gen == t.memoGen {
		return e
	}
	return nil
}

// memoStore records a fresh page resolution in vpn's slot, displacing
// whatever page held it. Callers must only store resolutions that are
// also present in the thread's TLB: every event that can kill a TLB
// entry (flush, shootdown, round-robin displacement) or an EPC slot
// (eviction, slot-table rebuild) invalidates the corresponding memo
// entries, so a memo hit soundly stands in for TLB probe + residency
// lookup. Dropping an entry is always sound.
func (t *Thread) memoStore(vpn uint64, enc *enclave.Enclave, frame *mem.Frame, ref *bool) {
	t.memo[vpn&(memoSlots-1)] = memoEntry{key: vpn + 1, enc: enc, frame: frame, ref: ref, gen: t.memoGen}
}

// memoClear drops every memo entry (TLB flush, EPC slot-table
// rebuild). Transitions flush on every ECALL and OCALL, so this is a
// generation bump, not a sweep; when the generation wraps, the keys
// are cleared once so no entry from 2^32 flushes ago can come back.
func (t *Thread) memoClear() {
	t.memoGen++
	if t.memoGen == 0 {
		for i := range t.memo {
			t.memo[i].key = 0
		}
	}
}

// memoInvalidate drops the memo entry for vpn if present (TLB
// shootdown or displacement of that page).
func (t *Thread) memoInvalidate(vpn uint64) {
	if e := t.memoLookup(vpn); e != nil {
		e.key = 0
	}
}

// clone returns a copy of t bound to env, with its own TLB copy; it
// counts into env's machine, whose bank the machine clone copied. The
// page memo starts empty: its frame and reference-bit pointers point
// into the source machine's EPC. An empty memo is always sound (it
// only caches what the TLB and EPC would answer), so simulated results
// are unchanged.
func (t *Thread) clone(env *Env) *Thread {
	return &Thread{
		ID:           t.ID,
		Clock:        t.Clock,
		env:          env,
		tlb:          t.tlb.Clone(),
		enclaveDepth: t.enclaveDepth,
	}
}

// InEnclave reports whether the thread currently executes inside an
// enclave (between ECALL entry and exit, outside any OCALL).
func (t *Thread) InEnclave() bool { return t.enclaveDepth > 0 }

// Env returns the environment the thread belongs to.
func (t *Thread) Env() *Env { return t.env }

func (t *Thread) flushTLB() {
	t.tlb.Flush()
	t.memoClear()
	m := t.env.M
	m.Counters.Inc(perf.TLBFlushes)
	// Transitions pollute the LLC: the kernel/microcode path
	// displaces a slice of the cache (part of the "cache pollution"
	// cost of frequent enclave transitions, paper §2.3).
	if d := m.Costs.PollutionDenom; d > 0 {
		m.LLC.EvictEveryNth(d, m.pollutionPhase)
		m.pollutionPhase++
	}
}

// transitionCost scales a base exit-path transition cost by the
// current concurrency level (paper §3.2.2: SGX overheads "can change
// drastically based on the number of threads"; Figure 3 shows Lighttpd
// latency growing ~7x with 16 concurrent clients). The contention is
// applied on the OCALL/syscall path, where concurrent requests pile up
// on kernel-side work and TLB shootdowns.
func (t *Thread) transitionCost(base uint64) uint64 {
	n := t.env.concurrency
	if n <= 1 {
		return base
	}
	f := 1 + t.env.M.Costs.ContentionFactor*float64(n-1)
	// The float64 product can exceed uint64 range for large base costs
	// at high concurrency; converting such a value is undefined (and
	// wraps to garbage on common targets). Saturate instead: a clamped
	// cost stays an upper bound, a wrapped one becomes nonsense.
	return cycles.SatU64(float64(base) * f)
}

// ECall enters the environment's enclave, runs fn inside it, and
// returns. Only ported (Native-mode) applications perform ECALLs; in
// Vanilla mode the call is direct, and in LibOS mode the unmodified
// application already runs entirely inside the enclave, so the call is
// also direct. Entering and leaving flush the thread's TLB (§2.3).
func (t *Thread) ECall(fn func()) {
	if t.env.Mode != Native {
		fn()
		return
	}
	if enc := t.env.Enclave; enc != nil && enc.Aborted() {
		// EENTER to an aborted enclave fails (abort-page semantics).
		panic(Fault(&AbortError{EnclaveID: enc.ID, Cause: enc.AbortCause()}))
	}
	t.env.M.transitionFault("ECALL")
	t.env.M.trace(TraceECall, t, 0)
	t.RuntimeECall(fn)
}

// OCall leaves the enclave to run fn in the untrusted region and
// returns. When the machine runs in switchless mode the call is
// instead handed to a proxy thread over shared memory and the enclave
// is never exited — no TLB flush (paper §5.6). Outside an enclave it
// degenerates to a plain call.
func (t *Thread) OCall(fn func()) {
	if !t.InEnclave() {
		fn()
		return
	}
	m := t.env.M
	if m.cfg.Switchless && m.admitSwitchless() {
		m.Counters.Inc(perf.SwitchlessCalls)
		// The proxy performs the work while the enclave thread
		// waits; the wait time equals the proxied work, which fn
		// charges to this clock.
		t.Clock.Advance(m.Costs.SwitchlessCall)
		t.outside(fn)
		t.Clock.Advance(m.Costs.SwitchlessCall)
		return
	}
	m.transitionFault("OCALL")
	m.trace(TraceOCall, t, 0)
	t.RuntimeOCall(fn)
}

// outside runs fn with the thread outside its enclave: the proxied
// work of a switchless call, or the untrusted half of an OCALL.
func (t *Thread) outside(fn func()) {
	depth := t.enclaveDepth
	t.enclaveDepth = 0
	fn()
	t.enclaveDepth = depth
}

// Syscall charges one system call that transfers n payload bytes,
// routed according to the execution mode: directly in Vanilla mode,
// through an OCALL in Native mode, and through the LibOS shim plus an
// OCALL in LibOS mode (paper §2.3, §2.4).
func (t *Thread) Syscall(n uint64) {
	c := &t.env.M.Costs
	t.env.M.Counters.Inc(perf.Syscalls)
	t.env.M.trace(TraceSyscall, t, 0)
	work := func() {
		t.Clock.Advance(c.SyscallDirect + n*c.ByteCopy)
	}
	switch t.env.Mode {
	case Vanilla:
		work()
	case Native:
		t.OCall(work)
	case LibOS:
		t.Clock.Advance(c.SyscallShim)
		t.OCall(work)
	}
}

// SyscallInternal charges a system call the LibOS handles entirely
// inside the enclave (no exit) — e.g. memory management. In other
// modes it behaves like Syscall.
func (t *Thread) SyscallInternal(n uint64) {
	if t.env.Mode != LibOS {
		t.Syscall(n)
		return
	}
	c := &t.env.M.Costs
	t.env.M.Counters.Inc(perf.Syscalls)
	t.Clock.Advance(c.SyscallShim + n*c.ByteCopy)
}

// Read copies len(p) bytes at addr from the simulated address space.
// A machine fault (aborted enclave, injected failure) unwinds as a
// typed Fault recoverable with Protect.
func (t *Thread) Read(addr uint64, p []byte) {
	raise(t.env.M.access(t, addr, uint64(len(p)), p, 0, opRead))
}

// Write copies p into the simulated address space at addr. Faults
// unwind as with Read.
func (t *Thread) Write(addr uint64, p []byte) {
	raise(t.env.M.access(t, addr, uint64(len(p)), p, 0, opWrite))
}

// ReadU64 reads a little-endian uint64 at addr. Aligned words whose
// page resolution is memoized take the machine's word fast path,
// which skips the general access dispatch and its staging buffer (see
// Machine.wordFast); the simulated charges are identical either way.
func (t *Thread) ReadU64(addr uint64) uint64 {
	m := t.env.M
	if m.fastWords && addr&7 == 0 {
		if f := m.wordFast(t, addr, 8, false); f != nil {
			return binary.LittleEndian.Uint64(f.Data[addr&(mem.PageSize-1):])
		}
	}
	var b [8]byte
	raise(m.access(t, addr, 8, b[:], 0, opRead))
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 at addr.
func (t *Thread) WriteU64(addr uint64, v uint64) {
	m := t.env.M
	if m.fastWords && addr&7 == 0 {
		if f := m.wordFast(t, addr, 8, true); f != nil {
			binary.LittleEndian.PutUint64(f.Data[addr&(mem.PageSize-1):], v)
			return
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	raise(m.access(t, addr, 8, b[:], 0, opWrite))
}

// ReadU32 reads a little-endian uint32 at addr.
func (t *Thread) ReadU32(addr uint64) uint32 {
	m := t.env.M
	if m.fastWords && addr&3 == 0 {
		if f := m.wordFast(t, addr, 4, false); f != nil {
			return binary.LittleEndian.Uint32(f.Data[addr&(mem.PageSize-1):])
		}
	}
	var b [4]byte
	raise(m.access(t, addr, 4, b[:], 0, opRead))
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian uint32 at addr.
func (t *Thread) WriteU32(addr uint64, v uint32) {
	m := t.env.M
	if m.fastWords && addr&3 == 0 {
		if f := m.wordFast(t, addr, 4, true); f != nil {
			binary.LittleEndian.PutUint32(f.Data[addr&(mem.PageSize-1):], v)
			return
		}
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	raise(m.access(t, addr, 4, b[:], 0, opWrite))
}

// ReadF64 reads a float64 at addr.
func (t *Thread) ReadF64(addr uint64) float64 {
	return math.Float64frombits(t.ReadU64(addr))
}

// WriteF64 writes a float64 at addr.
func (t *Thread) WriteF64(addr uint64, v float64) {
	t.WriteU64(addr, math.Float64bits(v))
}

// Memset fills n bytes at addr with v. The fill is issued as one
// simulated access per page run (the hardware-stream equivalent of a
// rep-stos loop), writing straight into the backing frames instead of
// staging hundreds of small buffer writes.
func (t *Thread) Memset(addr uint64, v byte, n uint64) {
	raise(t.env.M.access(t, addr, n, nil, v, opFill))
}

// Memcpy copies n bytes from src to dst within the simulated address
// space, one page-bounded chunk at a time (each chunk is one simulated
// read access plus one write access). The regions must not overlap.
// The source bytes are staged through a buffer because resolving the
// destination page can fault, evict, or recycle frames — including the
// source's.
func (t *Thread) Memcpy(dst, src, n uint64) {
	var buf [mem.PageSize]byte
	for n > 0 {
		c := mem.PageSize - (src & (mem.PageSize - 1))
		if d := mem.PageSize - (dst & (mem.PageSize - 1)); d < c {
			c = d
		}
		if c > n {
			c = n
		}
		t.Read(src, buf[:c])
		t.Write(dst, buf[:c])
		dst += c
		src += c
		n -= c
	}
}

// Compute charges n cycles of pure computation (no memory traffic).
func (t *Thread) Compute(n uint64) { t.Clock.Advance(n) }
