package sgx

import (
	"fmt"

	"sgxgauge/internal/enclave"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/tlb"
)

// Env is one application's execution environment on a machine: a mode,
// an optional enclave, and a main thread. Workloads receive an Env and
// interact with simulated memory and the OS exclusively through it.
type Env struct {
	// M is the machine this environment runs on.
	M *Machine
	// Mode selects Vanilla / Native / LibOS behaviour.
	Mode Mode
	// Enclave is the environment's enclave; nil in Vanilla mode
	// until LaunchEnclave is called (and always nil if never called).
	Enclave *enclave.Enclave
	// Main is the initial thread.
	Main *Thread

	concurrency     int
	nextThread      int
	insideByDefault bool
}

// NewEnv creates an environment in the given mode with its main
// thread.
func (m *Machine) NewEnv(mode Mode) *Env {
	e := &Env{M: m, Mode: mode, concurrency: 1}
	e.Main = e.newThread()
	return e
}

// Clone returns an independent copy of the environment on a clone of
// its machine (see Machine.clone), which must host no other
// environment's threads. The copy continues exactly as e would: same
// clocks, counters, enclave, EPC, cache and TLB state. It is how a
// booted LibOS template is reused without re-running the boot. Clone
// only reads e, so concurrent Clones of an idle environment are safe.
func (e *Env) Clone() *Env {
	m := e.M.clone()
	c := &Env{
		M:               m,
		Mode:            e.Mode,
		concurrency:     e.concurrency,
		nextThread:      e.nextThread,
		insideByDefault: e.insideByDefault,
	}
	for i, enc := range e.M.enclaves {
		if enc == e.Enclave {
			c.Enclave = m.enclaves[i]
		}
	}
	for _, t := range e.M.threads {
		if t.env != e {
			panic("sgx: Env.Clone of a machine shared with another environment")
		}
		nt := t.clone(c)
		m.threads = append(m.threads, nt)
		if t == e.Main {
			c.Main = nt
		}
	}
	return c
}

func (e *Env) newThread() *Thread {
	t := &Thread{
		ID:    e.nextThread,
		env:   e,
		tlb:   tlb.New(e.M.cfg.TLBEntries, e.M.cfg.TLBWays),
		shard: e.M.Counters.NewShard(),
	}
	if e.insideByDefault {
		t.enclaveDepth = 1
	}
	e.nextThread++
	e.M.threads = append(e.M.threads, t)
	return t
}

func (e *Env) dropThread(t *Thread) {
	// Fold the retiring thread's counter deltas into the shared bank;
	// the Counters keep reporting them after the shard is gone.
	t.shard.Release()
	for i, cur := range e.M.threads {
		if cur == t {
			e.M.threads = append(e.M.threads[:i], e.M.threads[i+1:]...)
			return
		}
	}
}

// LaunchEnclave builds and initializes an enclave whose measured image
// occupies imagePages pages and whose total declared size is sizePages
// pages. The heap starts right after the image.
//
// The build loads every image page through the EPC and extends the
// measurement — for images larger than the EPC this is where the
// launch-time eviction storm of Figure 6a comes from ("prior to its
// execution [an enclave] is loaded completely in the EPC to verify its
// content", paper §3.2.1). The heap region [imagePages, sizePages) is
// demand-allocated on first touch (SGX v2 EAUG behaviour, Appendix D).
func (e *Env) LaunchEnclave(imagePages, sizePages int) (*enclave.Enclave, error) {
	return e.LaunchEnclaveReserve(imagePages, imagePages, sizePages)
}

// LaunchEnclaveReserve is LaunchEnclave with independent control over
// how much of the measured image is reserved (kept out of the heap).
// A Graphene-style loader measures the entire declared enclave —
// including what will become application heap — but reserves only its
// own loader footprint, so heap accesses after launch hit pages that
// were EADDed and then evicted (load-backs rather than fresh
// allocations, paper Appendix D / Figure 9).
func (e *Env) LaunchEnclaveReserve(imagePages, reservePages, sizePages int) (*enclave.Enclave, error) {
	if e.Mode == Vanilla {
		return nil, fmt.Errorf("sgx: LaunchEnclave in Vanilla mode")
	}
	if e.Enclave != nil {
		return nil, fmt.Errorf("sgx: environment already has an enclave")
	}
	if imagePages > sizePages {
		return nil, fmt.Errorf("sgx: image (%d pages) exceeds enclave size (%d pages)", imagePages, sizePages)
	}
	if reservePages > imagePages {
		return nil, fmt.Errorf("sgx: reserve (%d pages) exceeds image (%d pages)", reservePages, imagePages)
	}
	enc := e.M.newEnclave(sizePages)
	t := e.Main
	c := &e.M.Costs

	// EADD + EEXTEND each image page. The reserved (loader/binary)
	// pages get deterministic pseudo-content standing in for the
	// binary; the remaining measured pages are zero heap pages, as a
	// Graphene-style loader EADDs them.
	for i := 0; i < imagePages; i++ {
		id := mem.PageID{Enclave: enc.ID, VPN: mem.PageNumber(enc.Base) + uint64(i)}
		f, err := e.M.EPC.AllocPage(&t.Clock, c, id)
		if err != nil {
			// A degenerate EPC cannot even host the build; the
			// enclave never becomes usable.
			e.M.DestroyEnclave(enc)
			return nil, fmt.Errorf("sgx: building enclave page %d: %w", i, err)
		}
		if i < reservePages {
			fillImagePage(f, uint64(i))
		}
		enc.ExtendMeasurement(id.VPN, f)
		// EEXTEND measures the page in 256-byte chunks; charge a
		// nominal hashing cost per page, plus the copy/hash cache
		// traffic of moving the page through the LLC.
		t.Clock.Advance(c.Compute * 64)
		e.M.chargePageLoad(t, enc.Base+uint64(i)*mem.PageSize)
	}
	// Reserve the loader/binary region so the heap starts after it.
	if reservePages > 0 {
		if _, err := enc.Alloc(uint64(reservePages)*mem.PageSize, 1); err != nil {
			return nil, fmt.Errorf("sgx: reserving image region: %w", err)
		}
	}
	enc.FinishLaunch()
	// EINIT: verify the measurement against the author's signature.
	t.Clock.Advance(c.ECallEnter)
	e.Enclave = enc
	return enc, nil
}

// DestroyEnclave tears down the environment's enclave, releasing its
// EPC and backing pages and invalidating stale TLB entries and cache
// lines, after which the environment may launch a fresh enclave (a
// create→destroy→create service lifecycle). No-op without an enclave.
func (e *Env) DestroyEnclave() {
	if e.Enclave == nil {
		return
	}
	e.M.DestroyEnclave(e.Enclave)
	e.Enclave = nil
}

// fillImagePage writes deterministic pseudo-content so measurements
// are stable and non-trivial.
func fillImagePage(f *mem.Frame, idx uint64) {
	x := idx*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := 0; i < mem.PageSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f.Data[i] = byte(x)
	}
}

// Alloc reserves n bytes of workload memory: enclave heap in Native
// and LibOS modes, untrusted memory in Vanilla mode. align must be a
// power of two (0 means 8).
func (e *Env) Alloc(n, align uint64) (uint64, error) {
	if e.Mode != Vanilla {
		if e.Enclave == nil {
			return 0, fmt.Errorf("sgx: Alloc before LaunchEnclave in %v mode", e.Mode)
		}
		return e.Enclave.Alloc(n, align)
	}
	return e.M.AllocUntrusted(n, align), nil
}

// MustAlloc is Alloc that panics on failure; workloads size their
// enclaves up front, so failure indicates a harness bug.
func (e *Env) MustAlloc(n, align uint64) uint64 {
	a, err := e.Alloc(n, align)
	if err != nil {
		panic(err)
	}
	return a
}

// AllocUntrusted reserves untrusted memory regardless of mode (I/O
// staging buffers, host-side data).
func (e *Env) AllocUntrusted(n, align uint64) uint64 {
	return e.M.AllocUntrusted(n, align)
}

// Concurrency returns the number of logical threads currently entering
// the enclave concurrently (used for the contention model).
func (e *Env) Concurrency() int { return e.concurrency }

// SetConcurrency overrides the contention level directly; most callers
// should use RunParallel instead.
func (e *Env) SetConcurrency(n int) {
	if n < 1 {
		n = 1
	}
	e.concurrency = n
}

// RunParallel simulates n logical threads running fn concurrently.
// Threads execute sequentially (keeping the simulation deterministic),
// each with a private dTLB and clock started at the caller's current
// time; the caller's clock then advances by the maximum thread
// duration, modelling the parallel phase's wall-clock contribution.
// Enclave transition costs inside the phase are scaled by the
// contention model.
func (e *Env) RunParallel(n int, fn func(t *Thread, i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(e.Main, 0)
		return
	}
	base := e.Main.Clock.Cycles()
	prev := e.concurrency
	e.concurrency = n
	var maxDelta uint64
	for i := 0; i < n; i++ {
		t := e.newThread()
		t.Clock.Advance(base)
		fn(t, i)
		if d := t.Clock.Cycles() - base; d > maxDelta {
			maxDelta = d
		}
		e.dropThread(t)
	}
	e.concurrency = prev
	e.Main.Clock.Advance(maxDelta)
}

// EnterPermanently marks the environment as executing inside the
// enclave from now on: all current and future threads run in-enclave
// until they OCALL out. The LibOS runtime calls this once its enclave
// is initialized, since under a library OS the entire unmodified
// application lives inside the enclave (paper §2.4).
func (e *Env) EnterPermanently() {
	e.insideByDefault = true
	for _, t := range e.M.threads {
		if t.env == e && t.enclaveDepth == 0 {
			t.enclaveDepth = 1
		}
	}
}

// Elapsed returns the cycles consumed on the main thread so far.
func (e *Env) Elapsed() uint64 { return e.Main.Clock.Cycles() }

// Snapshot captures the machine's counters.
func (e *Env) Snapshot() perf.Snapshot { return e.M.Counters.Snapshot() }
