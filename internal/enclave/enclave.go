// Package enclave models the software-visible state of one SGX
// enclave: its identity, virtual address range, launch-time
// measurement, and in-enclave heap.
//
// The expensive parts of an enclave's life — paging its contents
// through the EPC, transitions, TLB flushes — are driven by the
// machine (package sgx); this package holds the bookkeeping.
package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"sgxgauge/internal/mem"
)

// ErrOutOfMemory is returned when an allocation does not fit in the
// enclave's declared size.
var ErrOutOfMemory = errors.New("enclave: heap exhausted (enclave size exceeded)")

// Enclave is one trusted execution environment instance.
type Enclave struct {
	// ID is the machine-assigned enclave identity (EPCM owner field).
	ID uint32
	// Base is the first virtual address of the enclave range.
	Base uint64
	// SizePages is the declared enclave size. SGX loads this many
	// pages through the EPC at launch to compute the measurement
	// (paper §3.2.1, Appendix D).
	SizePages int
	// Measurement is the SHA-256 launch measurement (MRENCLAVE
	// analogue) computed over every page added at build time.
	Measurement [32]byte

	heapNext   uint64
	hash       [32]byte // running measurement state (chained SHA-256)
	launched   bool
	abortCause error

	// digest and hdr are EEXTEND scratch, reused for every page of the
	// build and dropped at FinishLaunch.
	digest hash.Hash
	hdr    [8]byte
}

// New creates an un-launched enclave covering
// [base, base+SizePages*PageSize).
func New(id uint32, base uint64, sizePages int) *Enclave {
	if sizePages <= 0 {
		panic(fmt.Sprintf("enclave: invalid size %d pages", sizePages))
	}
	e := &Enclave{ID: id, Base: base, SizePages: sizePages, heapNext: base}
	e.hash = sha256.Sum256([]byte("sgxgauge-enclave-init"))
	return e
}

// Limit returns the first address past the enclave range.
func (e *Enclave) Limit() uint64 {
	return e.Base + uint64(e.SizePages)*mem.PageSize
}

// Contains reports whether addr falls inside the enclave range.
func (e *Enclave) Contains(addr uint64) bool {
	return addr >= e.Base && addr < e.Limit()
}

// PageID returns the EPC page identity for the page containing addr.
func (e *Enclave) PageID(addr uint64) mem.PageID {
	return mem.PageID{Enclave: e.ID, VPN: mem.PageNumber(addr)}
}

// ExtendMeasurement folds one added page into the launch measurement
// (the EEXTEND step). The machine calls this once per page while
// building the enclave. Extending a launched enclave is a bug and
// panics: its Measurement is already sealed and would go stale.
func (e *Enclave) ExtendMeasurement(vpn uint64, f *mem.Frame) {
	if e.launched {
		panic("enclave: ExtendMeasurement after FinishLaunch")
	}
	if e.digest == nil {
		e.digest = sha256.New()
	}
	h := e.digest
	h.Reset()
	h.Write(e.hash[:])
	binary.LittleEndian.PutUint64(e.hdr[:], vpn)
	h.Write(e.hdr[:])
	h.Write(f.Data[:])
	h.Sum(e.hash[:0])
}

// FinishLaunch seals the measurement; further ExtendMeasurement calls
// are a bug.
func (e *Enclave) FinishLaunch() {
	if e.launched {
		panic("enclave: FinishLaunch called twice")
	}
	e.Measurement = e.hash
	e.launched = true
	e.digest = nil
}

// Clone returns an independent copy of a launched enclave, for a
// machine cloned from a booted template. Only launched enclaves clone:
// a build in progress holds a live digest, and a clone must never
// extend a measurement.
func (e *Enclave) Clone() *Enclave {
	if !e.launched {
		panic("enclave: Clone of an enclave still being built")
	}
	c := *e
	return &c
}

// Launched reports whether the enclave finished its build phase.
func (e *Enclave) Launched() bool { return e.launched }

// Abort transitions the enclave to the aborted state, recording the
// first cause. Real SGX has exactly this semantic: when the platform
// detects tampering it poisons the enclave, subsequent entries and
// accesses fail, and the rest of the machine keeps running. Abort is
// idempotent; later causes are ignored.
func (e *Enclave) Abort(cause error) {
	if e.abortCause != nil {
		return
	}
	if cause == nil {
		cause = errors.New("enclave: aborted")
	}
	e.abortCause = cause
}

// Aborted reports whether the enclave has been aborted.
func (e *Enclave) Aborted() bool { return e.abortCause != nil }

// AbortCause returns the first error that aborted the enclave, or nil
// while it is still live.
func (e *Enclave) AbortCause() error { return e.abortCause }

// Alloc reserves n bytes from the enclave heap with the given
// alignment (which must be a power of two; 0 means 8). Memory is
// demand-paged: no EPC pages are consumed until first touch.
func (e *Enclave) Alloc(n uint64, align uint64) (uint64, error) {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("enclave: alignment %d is not a power of two", align)
	}
	addr := (e.heapNext + align - 1) &^ (align - 1)
	if addr+n > e.Limit() || addr+n < addr {
		return 0, ErrOutOfMemory
	}
	e.heapNext = addr + n
	return addr, nil
}

// HeapUsed returns the number of heap bytes reserved so far.
func (e *Enclave) HeapUsed() uint64 { return e.heapNext - e.Base }
