package sgx

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// This file implements the access-stream extent compiler: workloads
// describe whole runs of accesses as Extents — (address, stride,
// element size, count, kind) — and the machine charges each
// page-confined stretch of a run in bulk, generalizing the LLC's
// AccessRun to the full access path. One page resolution — resolve,
// the same one accessPage starts with (memo probe, or TLB probe + page
// walk + EPCM check) — covers every access that the run makes to that
// page, because between two accesses of a page-confined run nothing
// can change the translation: faults, AEX flushes, evictions and
// shootdowns all happen inside the resolution step at the head of a
// run, never between the uniform accesses behind it. The charges are
// computed arithmetically, through the same chargeLLC as accessPage,
// but remain access-for-access identical to issuing each element
// through accessPage — the differential and fuzz tests hold the
// compiler to the naive replay bit for bit.
//
// There are two execution paths. The bulk path (bulkExtent) takes
// every extent whose Stride is a power of two no larger than a cache
// line and whose elements each fit inside their Stride-aligned slot
// (Elem <= Stride and Addr&(Stride-1)+Elem <= Stride). Every element
// of such an extent lies inside one line, so a page stretch touches a
// contiguous run of lines, each one or more times in a row: one
// AccessRun charges the distinct lines and the repeats are streak
// hits. Dense runs (Stride == Elem) and HashJoin's stride-16 word
// reads both qualify.
//
// Fallback conditions (the replay path, one Machine.access per
// element, is used instead of bulk charging):
//
//   - Config.SlowPath: the straight-line reference path must see
//     every access individually;
//   - chaos enabled: the injector consumes one PRNG draw per access
//     and may fault anywhere inside a run, so bulk charging would
//     both desynchronize the chaos stream and misattribute the fault;
//     replaying per access keeps fault attribution exact (the access
//     that trips the injector is the one charged);
//   - any other shape: strides that are zero, not a power of two or
//     wider than a line, overlapping elements (Stride < Elem), and
//     elements that straddle their slot, a line or a page.

// ExtentKind selects what an extent does with memory.
type ExtentKind uint8

const (
	// ExtentRead reads Count elements into the payload.
	ExtentRead ExtentKind = iota
	// ExtentWrite writes Count elements from the payload.
	ExtentWrite
	// ExtentFill writes the Fill byte across every element (no
	// payload; the rep-stos analogue at element granularity).
	ExtentFill
)

// String returns a short name for the kind.
func (k ExtentKind) String() string {
	switch k {
	case ExtentRead:
		return "read"
	case ExtentWrite:
		return "write"
	case ExtentFill:
		return "fill"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Extent describes Count simulated accesses of Elem bytes each, the
// i-th at Addr + i*Stride. Semantically an extent IS its per-element
// access sequence (elements that straddle a page boundary split into
// per-page chunks, exactly as a plain Read/Write of Elem bytes
// would); the machine merely charges page-confined stretches of that
// sequence in bulk when it can prove the outcome identical.
type Extent struct {
	// Addr is the address of element 0.
	Addr uint64
	// Stride is the distance in bytes between consecutive elements.
	// Stride > Elem leaves gaps (strided column walks); Stride < Elem
	// overlaps. Either way, only the shapes named in the file comment
	// are charged in bulk; the rest replay per access.
	Stride uint64
	// Count is the number of elements.
	Count uint64
	// Elem is the size of one element in bytes.
	Elem uint32
	// Kind selects read, write, or fill.
	Kind ExtentKind
	// Fill is the byte written by ExtentFill.
	Fill byte
	// Data is the packed payload (Count*Elem bytes): destination for
	// reads, source for writes. Exactly one of Data/U64 must be set
	// for Read/Write extents; Fill takes neither.
	Data []byte
	// U64 is the payload as little-endian 64-bit words, valid only
	// when Elem == 8 (one word per element). It saves workloads that
	// operate on word slices the byte-repacking round trip.
	U64 []uint64
}

// validate panics when the extent is malformed. Validation happens
// before any dispatch, so fast, slow and replay paths reject the same
// extents identically, having charged nothing.
func (x *Extent) validate() {
	if x.Elem == 0 {
		panic("sgx: extent with zero element size")
	}
	if x.Kind > ExtentFill {
		panic(fmt.Sprintf("sgx: unknown extent kind %d", x.Kind))
	}
	if x.Count == 0 {
		return
	}
	hi, payload := bits.Mul64(x.Count, uint64(x.Elem))
	if hi != 0 {
		panic("sgx: extent payload overflows")
	}
	switch x.Kind {
	case ExtentFill:
		if x.Data != nil || x.U64 != nil {
			panic("sgx: fill extent carries a payload")
		}
	default:
		switch {
		case x.U64 != nil:
			if x.Data != nil {
				panic("sgx: extent carries both Data and U64 payloads")
			}
			if x.Elem != 8 {
				panic(fmt.Sprintf("sgx: U64 payload with %d-byte elements", x.Elem))
			}
			if uint64(len(x.U64)) < x.Count {
				panic(fmt.Sprintf("sgx: U64 payload holds %d words, extent needs %d", len(x.U64), x.Count))
			}
		case x.Data != nil:
			if uint64(len(x.Data)) < payload {
				panic(fmt.Sprintf("sgx: Data payload holds %d bytes, extent needs %d", len(x.Data), payload))
			}
		default:
			panic("sgx: read/write extent without payload")
		}
	}
	// The last element must not wrap the address space.
	hi, span := bits.Mul64(x.Count-1, x.Stride)
	if hi != 0 {
		panic("sgx: extent stride span overflows")
	}
	end, carry := bits.Add64(x.Addr, span, 0)
	end, carry2 := bits.Add64(end, uint64(x.Elem), carry)
	if carry2 != 0 || end < x.Addr {
		panic("sgx: extent overflows the address space")
	}
}

// runExtent executes one extent, choosing bulk charging or per-access
// replay (see the file comment for the fallback conditions).
func (m *Machine) runExtent(t *Thread, x *Extent) error {
	x.validate()
	if x.Count == 0 {
		return nil
	}
	if m.fastWords && x.lineConfined() {
		return m.bulkExtent(t, x)
	}
	return m.replayExtent(t, x)
}

// lineConfined reports whether Stride is a power of two no larger
// than a line and every element fits inside its Stride-aligned slot
// (which also gives Elem <= Stride): then no element straddles a
// line or a page.
func (x *Extent) lineConfined() bool {
	s := x.Stride
	return s != 0 && s&(s-1) == 0 && s <= mem.LineSize && x.Addr&(s-1)+uint64(x.Elem) <= s
}

// replayExtent is the reference execution: one access per element,
// exactly as if the workload had issued each element through
// Read/Write/Memset. Under SlowPath this routes to accessPageSlow;
// under chaos it routes to accessPage so the injector's PRNG stream
// advances once per access and an injected fault lands on — and is
// attributed to — the precise element that tripped it.
func (m *Machine) replayExtent(t *Thread, x *Extent) error {
	elem := uint64(x.Elem)
	op := opRead
	switch x.Kind {
	case ExtentWrite:
		op = opWrite
	case ExtentFill:
		op = opFill
	}
	var word [8]byte
	for i := uint64(0); i < x.Count; i++ {
		var p []byte
		switch {
		case x.Kind == ExtentFill:
		case x.U64 != nil:
			if x.Kind == ExtentWrite {
				binary.LittleEndian.PutUint64(word[:], x.U64[i])
			}
			p = word[:]
		default:
			p = x.Data[i*elem : (i+1)*elem]
		}
		if err := m.access(t, x.Addr+i*x.Stride, elem, p, x.Fill, op); err != nil {
			return err
		}
		if x.Kind == ExtentRead && x.U64 != nil {
			x.U64[i] = binary.LittleEndian.Uint64(word[:])
		}
	}
	return nil
}

// bulkExtent charges a line-confined extent (see lineConfined). Each
// page-confined stretch is resolved once, its distinct lines — a
// contiguous run, since consecutive elements sit on the same line or
// the next — charged with one AccessRun, the repeated touches of a
// line counted as streak hits, and its payload moved by move.
func (m *Machine) bulkExtent(t *Thread, x *Extent) error {
	c := &m.Costs
	ctr := m.Counters
	shift := uint(bits.TrailingZeros64(x.Stride))
	addr := x.Addr
	for idx := uint64(0); idx < x.Count; {
		off := addr & (mem.PageSize - 1)
		accs := (mem.PageSize - off + x.Stride - 1) >> shift
		if rem := x.Count - idx; accs > rem {
			accs = rem
		}
		// The stretch's first access resolves the page; the other
		// accs-1 are memo hits.
		frame, enc, pend, err := m.resolve(t, addr)
		if err != nil {
			return err
		}
		ctr.Add(perf.Accesses, accs-1)
		pend += (accs - 1) * (c.Compute + c.TLBHit)

		first := mem.LineNumber(addr)
		lines := mem.LineNumber(addr+(accs-1)<<shift) - first + 1
		rep := accs - lines // one touch per line when Stride == LineSize
		hits, misses := m.LLC.AccessRun(first, lines)
		m.LLC.NoteHits(rep)
		pend += m.chargeLLC(hits+rep, misses, enc != nil)

		x.move(frame.Data[off:], idx, accs)
		if x.Kind == ExtentRead {
			ctr.Add(perf.BytesRead, accs*uint64(x.Elem))
		} else {
			ctr.Add(perf.BytesWritten, accs*uint64(x.Elem))
		}
		t.Clock.Advance(pend)
		addr += accs << shift
		idx += accs
	}
	return nil
}

// move transfers the payload of elements idx..idx+accs-1 of a
// line-confined extent, where page holds the frame bytes from element
// idx onward: one contiguous copy when the elements are dense, a
// per-element gather or scatter otherwise.
func (x *Extent) move(page []byte, idx, accs uint64) {
	elem, str := uint64(x.Elem), x.Stride
	if str == elem {
		s := page[:accs*elem]
		switch x.Kind {
		case ExtentRead:
			if x.U64 != nil {
				w := x.U64[idx : idx+accs]
				for k := range w {
					w[k] = binary.LittleEndian.Uint64(s)
					s = s[8:]
				}
			} else {
				copy(x.Data[idx*elem:], s)
			}
		case ExtentWrite:
			if x.U64 != nil {
				for _, v := range x.U64[idx : idx+accs] {
					binary.LittleEndian.PutUint64(s, v)
					s = s[8:]
				}
			} else {
				copy(s, x.Data[idx*elem:])
			}
		case ExtentFill:
			// Exponential self-copy: memmove-speed fill at any byte.
			s[0] = x.Fill
			for fi := 1; fi < len(s); fi *= 2 {
				copy(s[fi:], s[:fi])
			}
		}
		return
	}
	switch x.Kind {
	case ExtentRead:
		if x.U64 != nil {
			w := x.U64[idx : idx+accs]
			for k := range w {
				w[k] = binary.LittleEndian.Uint64(page[uint64(k)*str:])
			}
		} else {
			d := x.Data[idx*elem : (idx+accs)*elem]
			for k := uint64(0); k < accs; k++ {
				copy(d[k*elem:(k+1)*elem], page[k*str:])
			}
		}
	case ExtentWrite:
		if x.U64 != nil {
			for k, v := range x.U64[idx : idx+accs] {
				binary.LittleEndian.PutUint64(page[uint64(k)*str:], v)
			}
		} else {
			d := x.Data[idx*elem : (idx+accs)*elem]
			for k := uint64(0); k < accs; k++ {
				copy(page[k*str:], d[k*elem:(k+1)*elem])
			}
		}
	case ExtentFill:
		for k := uint64(0); k < accs; k++ {
			s := page[k*str : k*str+elem]
			for j := range s {
				s[j] = x.Fill
			}
		}
	}
}

// TryRunExtent executes one extent on this thread, returning a fault
// instead of panicking. The extent counters are charged up front —
// they count issued extents, whether or not a fault cuts one short.
func (t *Thread) TryRunExtent(x Extent) error {
	t.env.M.Counters.Inc(perf.ExtentRuns)
	t.env.M.Counters.Add(perf.ExtentAccesses, x.Count)
	return t.env.M.runExtent(t, &x)
}

// RunExtent executes one extent, panicking with the Fault on error
// (the convention of Read/Write: workloads treat faults as fatal
// unless they opt into the Try variants).
func (t *Thread) RunExtent(x Extent) { raise(t.TryRunExtent(x)) }

// ReadU64Run reads len(dst) consecutive u64 words starting at addr.
func (t *Thread) ReadU64Run(addr uint64, dst []uint64) {
	t.RunExtent(Extent{Addr: addr, Stride: 8, Count: uint64(len(dst)), Elem: 8, Kind: ExtentRead, U64: dst})
}

// WriteU64Run writes the words of src consecutively starting at addr.
func (t *Thread) WriteU64Run(addr uint64, src []uint64) {
	t.RunExtent(Extent{Addr: addr, Stride: 8, Count: uint64(len(src)), Elem: 8, Kind: ExtentWrite, U64: src})
}

// ReadU64Strided reads len(dst) u64 words, the i-th at addr+i*stride.
func (t *Thread) ReadU64Strided(addr, stride uint64, dst []uint64) {
	t.RunExtent(Extent{Addr: addr, Stride: stride, Count: uint64(len(dst)), Elem: 8, Kind: ExtentRead, U64: dst})
}
