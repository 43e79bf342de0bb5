// Package cycles provides the cycle-accounting cost model used by the
// simulated SGX machine, together with a deterministic per-thread clock.
//
// All simulated latencies are expressed in CPU cycles at a nominal
// frequency (the paper's Xeon E-2186G runs at 3.8 GHz). The constants in
// CostModel are calibrated against the figures SGXGauge reports:
//
//   - evicting an EPC page costs about 12,000 cycles (paper §2.2),
//   - an ECALL round trip costs about 17,000 cycles (Weisse et al.,
//     cited in paper §2.3),
//   - EWB (evict) latency is about 16% higher than ELDU (load-back)
//     latency (paper Appendix A).
package cycles

import "time"

// Frequency is the nominal clock frequency of the simulated CPU in Hz.
// It matches the Xeon E-2186G used in the paper (3.8 GHz).
const Frequency = 3.8e9

// CostModel holds the per-operation cycle charges of the simulated
// machine. A zero value is not useful; obtain one from DefaultCosts.
type CostModel struct {
	// TLBHit is the cost of a dTLB hit.
	TLBHit uint64
	// PageWalk is the cost of a page-table walk after a dTLB miss.
	PageWalk uint64
	// EPCMCheck is the additional cost of verifying the EPCM entry
	// when the walked page belongs to an enclave (paper §2.3).
	EPCMCheck uint64
	// L1Hit is unused: the machine has no first-level cache, so
	// nothing charges it. It stays because the golden spec keys spell
	// out every CostModel field, and dropping it would change them.
	L1Hit uint64
	// LLCHit is the cost of a last-level-cache hit.
	LLCHit uint64
	// DRAMAccess is the cost of an LLC miss serviced from DRAM.
	DRAMAccess uint64
	// MEELine is the additional cost of decrypting/encrypting one
	// cache line through the Memory Encryption Engine when the line
	// belongs to an EPC page.
	MEELine uint64
	// ECallEnter and ECallExit are the one-way costs of entering and
	// leaving an enclave through an ECALL. Their sum approximates the
	// ~17,000-cycle round trip reported by Weisse et al.
	ECallEnter uint64
	ECallExit  uint64
	// OCallExit and OCallReturn are the one-way costs of an OCALL.
	OCallExit   uint64
	OCallReturn uint64
	// AEX is the cost of an asynchronous enclave exit (for example on
	// a page fault raised while executing inside the enclave).
	AEX uint64
	// SwitchlessCall is the cost of handing an OCALL to a proxy
	// thread over shared memory without exiting the enclave.
	SwitchlessCall uint64
	// EWBPage is the cost of evicting one EPC page (encrypt + MAC +
	// copy to untrusted memory). The paper measures ~12,000 cycles.
	EWBPage uint64
	// ELDUPage is the cost of loading one page back (copy + decrypt +
	// integrity check). EWBPage is ~16% higher than ELDUPage.
	ELDUPage uint64
	// EPCAlloc is the cost of allocating a free EPC page (EAUG-like).
	EPCAlloc uint64
	// FaultOverhead is the fixed kernel/driver cost of taking an EPC
	// page fault, on top of the ELDU or allocation work.
	FaultOverhead uint64
	// SyscallDirect is the cost of a system call issued by an
	// unprotected (Vanilla) application.
	SyscallDirect uint64
	// SyscallShim is the LibOS-internal cost of interposing on a
	// system call before it is forwarded (or handled internally).
	SyscallShim uint64
	// ByteCopy is the per-byte cost of copying data across the
	// enclave boundary or through the OS.
	ByteCopy uint64
	// Compute is the nominal per-access instruction cost charged for
	// the arithmetic surrounding one memory access.
	Compute uint64
	// ContentionFactor scales the extra transition cost added per
	// additional thread concurrently entering the same enclave
	// (models EPCM locking and TLB-shootdown contention, paper §3.2.2).
	ContentionFactor float64
	// AsyncEvictShare is the fraction of an EWB's latency charged to
	// the faulting thread: the kernel evicts 16-page batches ahead of
	// demand, overlapping most write-back work with execution, so a
	// fault pays mainly for its synchronous ELDU. Figure 7 still
	// reports the full EWB latency as the driver function observes it.
	AsyncEvictShare float64
	// PollutionDenom is the fraction of the LLC displaced by one
	// enclave transition (kernel entry/exit, microcode, and AEX
	// handling pollute the cache), expressed as one
	// PollutionDenom-th of the cache; 0 disables pollution.
	PollutionDenom uint64
	// TreeLevel is the cost of touching one uncached integrity-tree
	// level during EWB/ELDU when the Merkle integrity tree is
	// enabled (one untrusted-memory access plus hashing).
	TreeLevel uint64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		TLBHit:           1,
		PageWalk:         120,
		EPCMCheck:        130,
		L1Hit:            3,
		LLCHit:           10,
		DRAMAccess:       150,
		MEELine:          350,
		ECallEnter:       8500,
		ECallExit:        8500,
		OCallExit:        8200,
		OCallReturn:      8200,
		AEX:              5500,
		SwitchlessCall:   600,
		EWBPage:          12000,
		ELDUPage:         10300, // 12000 / 1.165
		EPCAlloc:         1900,
		FaultOverhead:    2400,
		SyscallDirect:    1100,
		SyscallShim:      450,
		ByteCopy:         1,
		Compute:          1,
		ContentionFactor: 0.28,
		AsyncEvictShare:  0.25,
		PollutionDenom:   256,
		TreeLevel:        210,
	}
}

// Clock is a deterministic cycle counter for one simulated hardware
// thread. It is not safe for concurrent use; each simulated thread owns
// its own Clock.
type Clock struct {
	cycles uint64
}

// Advance adds n cycles to the clock.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// Cycles returns the number of cycles elapsed on this clock.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset sets the clock back to zero.
func (c *Clock) Reset() { c.cycles = 0 }

// Duration converts a cycle count to wall-clock time at Frequency.
func Duration(cycles uint64) time.Duration {
	return SatDuration(float64(cycles) / Frequency * float64(time.Second))
}

// Micros converts a cycle count to microseconds at Frequency.
func Micros(cycles uint64) float64 {
	return float64(cycles) / Frequency * 1e6
}
