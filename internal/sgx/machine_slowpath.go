package sgx

import (
	"fmt"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// accessPageSlow is the straight-line reference implementation of a
// single-page access, selected by Config.SlowPath. It performs every
// step the architecture description dictates, one at a time: scan for
// the owning enclave, probe the TLB, look the page up in the EPC
// residency map, charge each cache line individually, and count every
// event on the shared atomic bank.
//
// It exists so the optimized accessPage has something to be measured
// against: the differential tests drive identical workloads down both
// paths and require counter-for-counter and cycle-for-cycle identical
// results. Any change to simulated semantics must be made to both
// functions — if only one is touched, those tests fail.
func (m *Machine) accessPageSlow(t *Thread, addr, n uint64, p []byte, v byte, op pageOp) error {
	c := &m.Costs
	m.Counters.Inc(perf.Accesses)
	t.Clock.Advance(c.Compute)

	enc := m.enclaveFor(addr)
	if enc != nil && enc.Aborted() {
		// Abort-page semantics, as in the fast path.
		return &AbortError{EnclaveID: enc.ID, Cause: enc.AbortCause()}
	}
	if m.chaos != nil {
		if err := m.chaosStep(t, enc); err != nil {
			return err
		}
	}

	vpn := mem.PageNumber(addr)
	var frame *mem.Frame
	resolved := false
	if t.tlb.Lookup(vpn) {
		if f, _, ok := m.lookupResident(enc, addr); ok {
			t.Clock.Advance(c.TLBHit)
			frame, resolved = f, true
		} else {
			// Stale TLB entry that outlived an eviction: fall back to
			// the walk below, exactly like the fast path.
			t.tlb.Evict(vpn)
		}
	}
	if !resolved {
		m.Counters.Inc(perf.DTLBMisses)
		walk := c.PageWalk
		if enc != nil {
			// EPCM verification is part of installing a TLB entry
			// for an EPC page (paper Figure 1).
			walk += c.EPCMCheck
		}
		t.Clock.Advance(walk)
		m.Counters.Add(perf.WalkCycles, walk)
		var err error
		frame, _, err = m.ensureResident(t, enc, addr)
		if err != nil {
			return err
		}
		if enc != nil {
			ent := m.EPC.EPCMLookup(enc.PageID(addr))
			if !ent.Valid || ent.Owner != enc.ID || ent.VPN != vpn {
				panic(fmt.Sprintf("sgx: EPCM verification failed for %#x", addr))
			}
		}
		t.tlb.Insert(vpn)
	}

	// LLC traffic, line by line. Enclave lines pay the MEE
	// encryption/decryption latency on their way between LLC and
	// DRAM (paper §2.2).
	first := mem.LineNumber(addr)
	last := mem.LineNumber(addr + n - 1)
	for line := first; line <= last; line++ {
		if m.LLC.Access(line) {
			m.Counters.Inc(perf.LLCHits)
			t.Clock.Advance(c.LLCHit)
		} else {
			m.Counters.Inc(perf.LLCMisses)
			extra := c.DRAMAccess
			if enc != nil {
				extra += c.MEELine
			}
			t.Clock.Advance(extra)
			m.Counters.Add(perf.StallCycles, extra)
		}
	}

	off := addr & (mem.PageSize - 1)
	switch op {
	case opRead:
		copy(p, frame.Data[off:off+n])
		m.Counters.Add(perf.BytesRead, n)
	case opWrite:
		copy(frame.Data[off:], p)
		m.Counters.Add(perf.BytesWritten, n)
	case opFill:
		s := frame.Data[off : off+n]
		for i := range s {
			s[i] = v
		}
		m.Counters.Add(perf.BytesWritten, n)
	}
	return nil
}
