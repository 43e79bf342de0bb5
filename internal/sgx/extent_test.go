package sgx

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// extentFuzzPages is the enclave buffer size used by the fuzz
// differential; the EPC is kept smaller so runs fault and evict.
const extentFuzzPages = 40

// fuzzMachine builds one machine + enclave buffer with deterministic
// page contents.
func fuzzMachine(cfg Config) (*Machine, *Env, uint64) {
	m := NewMachine(cfg)
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(4, extentFuzzPages+8); err != nil {
		panic(err)
	}
	buf := env.MustAlloc(extentFuzzPages*mem.PageSize, mem.PageSize)
	seed := make([]byte, extentFuzzPages*mem.PageSize)
	for i := range seed {
		seed[i] = byte(i*2654435761 + 97)
	}
	env.Main.Write(buf, seed)
	return m, env, buf
}

// FuzzExtentCompiler holds the bulk-charging extent executor to the
// naive replay semantics: an arbitrary (offset, stride, count, elem,
// kind) extent must leave counters, cycles, payloads and memory
// byte-identical between the fast machine and the SlowPath reference,
// which routes the same extent through one accessPageSlow call per
// element chunk. Bit 0 of variant carries 8-byte elements as a U64
// payload instead of Data.
func FuzzExtentCompiler(f *testing.F) {
	f.Add(uint32(16), uint32(8), uint16(2000), uint8(8), uint8(0), uint8(0))    // dense words
	f.Add(uint32(61), uint32(8), uint16(900), uint8(8), uint8(1), uint8(0))     // misaligned words
	f.Add(uint32(123), uint32(1), uint16(5000), uint8(1), uint8(1), uint8(0))   // dense bytes
	f.Add(uint32(17), uint32(640), uint16(40), uint8(255), uint8(0), uint8(0))  // multi-line elems
	f.Add(uint32(9), uint32(4), uint16(50), uint8(16), uint8(2), uint8(0))      // overlap -> replay
	f.Add(uint32(512), uint32(4096), uint16(39), uint8(8), uint8(0), uint8(0))  // page column
	f.Add(uint32(4090), uint32(96), uint16(300), uint8(48), uint8(2), uint8(0)) // straddling fill
	// elemRaw 7 is an 8-byte element.
	f.Add(uint32(0), uint32(8), uint16(2000), uint8(7), uint8(1), uint8(1))   // dense U64 words
	f.Add(uint32(8), uint32(16), uint16(2000), uint8(7), uint8(0), uint8(1))  // stride-16 words
	f.Add(uint32(24), uint32(32), uint16(1500), uint8(7), uint8(1), uint8(1)) // stride-32 U64 words
	f.Add(uint32(40), uint32(64), uint16(1000), uint8(7), uint8(0), uint8(0)) // line-strided words
	f.Add(uint32(40), uint32(64), uint16(1000), uint8(7), uint8(0), uint8(1)) // line-strided U64 words
	f.Add(uint32(100), uint32(0), uint16(300), uint8(7), uint8(1), uint8(1))  // stride 0 -> replay
	f.Add(uint32(28), uint32(16), uint16(1000), uint8(7), uint8(0), uint8(1)) // Addr&15 == 12 -> replay
	f.Add(uint32(3), uint32(16), uint16(1200), uint8(4), uint8(2), uint8(0))  // strided fill
	f.Fuzz(func(t *testing.T, addrOff, stride uint32, count uint16, elemRaw, kindRaw, variant uint8) {
		elem := uint64(elemRaw)%128 + 1
		kind := ExtentKind(kindRaw % 3)
		words := variant&1 != 0 && elem == 8 && kind != ExtentFill
		str := uint64(stride) % (elem*3 + mem.PageSize/2)
		off := uint64(addrOff) % (8 * mem.PageSize)
		cnt := uint64(count) % 3000
		// Clamp the span inside the enclave buffer.
		bufBytes := uint64(extentFuzzPages * mem.PageSize)
		if off+elem > bufBytes {
			cnt = 0
		} else if str > 0 {
			if max := (bufBytes-off-elem)/str + 1; cnt > max {
				cnt = max
			}
		}

		type result struct {
			err      string
			pay      []byte
			readback []byte
			snap     perf.Snapshot
			cycles   uint64
		}
		run := func(cfg Config) result {
			m, env, buf := fuzzMachine(cfg)
			x := Extent{Addr: buf + off, Stride: str, Count: cnt, Elem: uint32(elem), Kind: kind}
			switch {
			case kind == ExtentFill:
				x.Fill = byte(addrOff)
			case words:
				x.U64 = make([]uint64, cnt)
				if kind == ExtentWrite {
					for i := range x.U64 {
						x.U64[i] = uint64(i)*0x9E3779B97F4A7C15 + 11
					}
				}
			default:
				x.Data = make([]byte, cnt*elem)
				if kind == ExtentWrite {
					for i := range x.Data {
						x.Data[i] = byte(i*31 + 11)
					}
				}
			}
			err := env.Main.TryRunExtent(x)
			pay := x.Data
			if words {
				pay = make([]byte, 8*len(x.U64))
				for i, v := range x.U64 {
					binary.LittleEndian.PutUint64(pay[8*i:], v)
				}
			}
			// Read the whole buffer back so written state is compared
			// too (a second extent, exercising the dense read path).
			rb := make([]byte, bufBytes)
			rerr := env.Main.TryRunExtent(Extent{Addr: buf, Stride: 1, Count: bufBytes, Elem: 1, Kind: ExtentRead, Data: rb})
			return result{
				err:      errString(err) + "|" + errString(rerr),
				pay:      pay,
				readback: rb,
				snap:     m.Counters.Snapshot(),
				cycles:   env.Main.Clock.Cycles(),
			}
		}

		cfg := Config{EPCPages: 24, Seed: 5}
		slowCfg := cfg
		slowCfg.SlowPath = true
		fast, slow := run(cfg), run(slowCfg)

		if fast.err != slow.err {
			t.Fatalf("errors diverged: fast %q, slow %q", fast.err, slow.err)
		}
		if !bytes.Equal(fast.pay, slow.pay) {
			t.Fatal("read payloads diverged")
		}
		if !bytes.Equal(fast.readback, slow.readback) {
			t.Fatal("memory state diverged")
		}
		if fast.snap != slow.snap {
			for _, e := range perf.Events() {
				if fast.snap.Get(e) != slow.snap.Get(e) {
					t.Errorf("%v: fast=%d slow=%d", e, fast.snap.Get(e), slow.snap.Get(e))
				}
			}
			t.FailNow()
		}
		if fast.cycles != slow.cycles {
			t.Fatalf("cycles diverged: fast=%d slow=%d", fast.cycles, slow.cycles)
		}
	})
}

// The bulk condition admits exactly the line-confined shapes: strides
// that are a power of two no wider than a line, with every element
// inside its Stride-aligned slot. Everything else replays.
func TestExtentLineConfined(t *testing.T) {
	cases := []struct {
		addr, stride uint64
		elem         uint32
		want         bool
	}{
		{0x1000, 8, 8, true},    // dense words
		{0x1003, 1, 1, true},    // dense bytes
		{0x1008, 16, 8, true},   // HashJoin's stride-16 keys
		{0x1038, 64, 8, true},   // line-strided words
		{0x1040, 64, 64, true},  // whole lines
		{0x1000, 0, 8, false},   // stride 0
		{0x100c, 16, 8, false},  // element straddles its slot
		{0x1004, 8, 8, false},   // misaligned dense words
		{0x1000, 12, 12, false}, // stride not a power of two
		{0x1000, 128, 8, false}, // stride wider than a line
		{0x1000, 4, 8, false},   // overlapping elements
	}
	for _, c := range cases {
		x := Extent{Addr: c.addr, Stride: c.stride, Elem: c.elem}
		if got := x.lineConfined(); got != c.want {
			t.Errorf("addr %#x stride %d elem %d: lineConfined = %v, want %v", c.addr, c.stride, c.elem, got, c.want)
		}
	}
}

// Satellite regression: a fault landing inside a bulk-charged run must
// attribute counters and abort state to the page offset that actually
// faulted. Under chaos the extent executor falls back to per-access
// replay precisely so the injector's fault lands on the element that
// tripped it; this test drives a tampering injector over whole-buffer
// extents and requires the fast machine to match the SlowPath
// reference on the error, the partially-filled payload (byte-exact
// fault position), counters and cycles — and requires that at least
// one seed actually faults mid-extent, so the attribution path is
// exercised, not vacuous.
func TestExtentChaosFaultAttribution(t *testing.T) {
	const pages = 60
	fill := make([]byte, pages*mem.PageSize)
	for i := range fill {
		fill[i] = byte(i*31 + 7)
	}
	run := func(cfg Config) (werr, rerr string, dst []byte, snap perf.Snapshot, cyc uint64) {
		m := NewMachine(cfg)
		env := m.NewEnv(Native)
		if _, err := env.LaunchEnclave(8, pages+8); err != nil {
			t.Fatal(err)
		}
		buf := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
		we := env.Main.TryRunExtent(Extent{Addr: buf, Stride: 1, Count: uint64(len(fill)), Elem: 1, Kind: ExtentWrite, Data: fill})
		dst = make([]byte, len(fill))
		re := env.Main.TryRunExtent(Extent{Addr: buf, Stride: 1, Count: uint64(len(dst)), Elem: 1, Kind: ExtentRead, Data: dst})
		return errString(we), errString(re), dst, m.Counters.Snapshot(), env.Main.Clock.Cycles()
	}

	sawMidExtent := false
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := Config{EPCPages: 32, Seed: 7, IntegrityTree: true, Chaos: &chaos.Config{
			Seed: seed, Rate: 0.004, MemTamper: true, AEXStorm: true,
		}}
		slowCfg := cfg
		slowCfg.SlowPath = true
		fw, fr, fd, fs, fc := run(cfg)
		sw, sr, sd, ss, sc := run(slowCfg)
		if fw != sw || fr != sr {
			t.Fatalf("seed %d: errors diverged: fast (%q,%q) slow (%q,%q)", seed, fw, fr, sw, sr)
		}
		if !bytes.Equal(fd, sd) {
			i := 0
			for i < len(fd) && fd[i] == sd[i] {
				i++
			}
			t.Fatalf("seed %d: fault position diverged at byte %d (page %d, offset %d)",
				seed, i, i/mem.PageSize, i%mem.PageSize)
		}
		if fs != ss {
			for _, e := range perf.Events() {
				if fs.Get(e) != ss.Get(e) {
					t.Errorf("seed %d: %v fast=%d slow=%d", seed, e, fs.Get(e), ss.Get(e))
				}
			}
			t.FailNow()
		}
		if fc != sc {
			t.Fatalf("seed %d: cycles diverged: fast=%d slow=%d", seed, fc, sc)
		}
		// Did the read fault strictly mid-extent? Then the payload is a
		// partial prefix: some pages filled, the rest untouched.
		if fw == "" && fr != "" {
			n := 0
			for n < len(fd) && fd[n] == fill[n] {
				n++
			}
			if n > 0 && n < len(fd) {
				sawMidExtent = true
				if n%mem.PageSize != 0 {
					// The replay fallback copies whole element chunks;
					// with 1-byte elements the cut must be page-exact
					// only when the fault was a page fault — a tamper
					// abort surfaces at a load-back, i.e. a page edge.
					t.Logf("seed %d: fault cut at byte %d inside page %d", seed, n, n/mem.PageSize)
				}
			}
		}
	}
	if !sawMidExtent {
		t.Fatal("no seed produced a mid-extent fault; attribution path untested")
	}
}

// Satellite regression: EPC.Resize rebuilds the slot table, so the
// CLOCK reference-bit pointer a thread memo caches dangles afterwards
// (the frame moves with its page, so the frame pointer stays valid).
// The resize hook must invalidate every thread's memo, and the write
// after the resize must still reach the page's frame.
func TestResizeInvalidatesThreadMemos(t *testing.T) {
	m := NewMachine(Config{EPCPages: 32})
	env := m.NewEnv(Native)
	enc, err := env.LaunchEnclave(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	buf := env.MustAlloc(4*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.WriteU64(buf, 0x1111) // memoize page 0 (frame and reference bit)
	if tr.memoLookup(mem.PageNumber(buf)) == nil {
		t.Fatal("write did not memoize its page")
	}
	// Grow the EPC: the slot table is reallocated wholesale.
	if err := m.EPC.Resize(&tr.Clock, &m.Costs, 64); err != nil {
		t.Fatal(err)
	}
	if tr.memoLookup(mem.PageNumber(buf)) != nil {
		t.Fatal("memo survived the slot-table rebuild")
	}
	tr.WriteU64(buf, 0x2222)
	f, ok := m.EPC.Lookup(enc.PageID(buf))
	if !ok {
		t.Fatal("page not resident after resize")
	}
	if got := binary.LittleEndian.Uint64(f.Data[:8]); got != 0x2222 {
		t.Fatalf("authoritative frame holds %#x, want 0x2222", got)
	}
}

// Satellite proof pin: a bulk-charged extent can never observe an EPC
// resize mid-run. Resize is reachable only from chaosStep, and a
// machine with chaos enabled clears fastWords, which routes every
// extent through per-access replay — where each access revalidates
// residency through the normal path. Simulated threads execute
// sequentially (RunParallel documents this), so no goroutine exists
// that could race a resize against an in-flight extent; the -race run
// of this package is the mechanical check of that claim.
func TestExtentResizeRoutingPinned(t *testing.T) {
	if m := NewMachine(Config{EPCPages: 48, Chaos: &chaos.Config{Seed: 1, Rate: 0.5, EPCBalloon: true}}); m.fastWords {
		t.Fatal("machine with chaos enabled must not take the bulk extent path")
	}
	if m := NewMachine(Config{EPCPages: 48, SlowPath: true}); m.fastWords {
		t.Fatal("SlowPath machine must not take the bulk extent path")
	}
	if m := NewMachine(Config{EPCPages: 48}); !m.fastWords {
		t.Fatal("plain machine should take the bulk extent path")
	}
}

// Extents replayed under a ballooning injector keep data integrity
// while the EPC is resized out from under them: every resize fires the
// memo-invalidation hook mid-extent. Run with -race this doubles as
// the mechanical half of the impossibility argument above.
func TestExtentsUnderBalloonChaos(t *testing.T) {
	m := NewMachine(Config{EPCPages: 48, Seed: 3, Chaos: &chaos.Config{
		Seed: 9, Rate: 0.03, EPCBalloon: true, AEXStorm: true,
	}})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(4, 70); err != nil {
		t.Fatal(err)
	}
	buf := env.MustAlloc(64*mem.PageSize, mem.PageSize)
	w := make([]uint64, 4096)
	r := make([]uint64, len(w))
	for iter := 0; iter < 30; iter++ {
		for i := range w {
			w[i] = uint64(iter)<<32 | uint64(i)
		}
		if err := env.Main.TryRunExtent(Extent{Addr: buf, Stride: 16, Count: uint64(len(w)), Elem: 8, Kind: ExtentWrite, U64: w}); err != nil {
			t.Fatalf("iter %d: write: %v", iter, err)
		}
		if err := env.Main.TryRunExtent(Extent{Addr: buf, Stride: 16, Count: uint64(len(r)), Elem: 8, Kind: ExtentRead, U64: r}); err != nil {
			t.Fatalf("iter %d: read: %v", iter, err)
		}
		for i := range r {
			if r[i] != w[i] {
				t.Fatalf("iter %d: word %d = %#x, want %#x", iter, i, r[i], w[i])
			}
		}
		if m.Counters.Get(perf.EPCResizes) == 0 && iter == 29 {
			t.Fatal("no EPC resize fired; chaos coverage vacuous")
		}
	}
}
