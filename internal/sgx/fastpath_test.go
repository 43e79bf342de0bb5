package sgx

import (
	"errors"
	"math"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/cycles"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// The fast access path (counter shards, page memos, batched charging)
// must be invisible in simulated results. These tests drive identical
// scripts through the optimized path and the Config.SlowPath reference
// and require bit-identical counters, cycles and data after every
// step, across configurations chosen to stress each shortcut: a tiny
// TLB (memo entries displaced by TLB round-robin), an L1 (per-line
// charging branch), chaos (injected flushes/resizes invalidating
// memos mid-access), and the integrity tree (aborts).

// diffState is the per-machine script state; addresses are allocated
// identically on both machines because the allocation sequence is.
type diffState struct {
	env  *Env
	ubuf uint64 // 8 untrusted pages
	ebuf uint64 // enclave buffer, bigger than the EPC
	sum  uint64 // data checksum accumulated by read steps
}

const (
	diffUPages = 8
	// diffEPages leaves room for two enclave pages memoSlots apart.
	diffEPages = memoSlots + 16
)

type diffStep struct {
	name string
	run  func(s *diffState)
}

func diffScript() []diffStep {
	return []diffStep{
		{"alloc-untrusted", func(s *diffState) {
			s.ubuf = s.env.AllocUntrusted(diffUPages*mem.PageSize, mem.PageSize)
			for i := uint64(0); i < diffUPages*mem.PageSize/8; i += 7 {
				s.env.Main.WriteU64(s.ubuf+i*8, i*0x9e3779b9+1)
			}
		}},
		{"launch", func(s *diffState) {
			if _, err := s.env.LaunchEnclave(8, diffEPages+40); err != nil {
				panic(err)
			}
			s.ebuf = s.env.MustAlloc(diffEPages*mem.PageSize, mem.PageSize)
		}},
		{"fill-enclave-seq", func(s *diffState) {
			s.env.Main.ECall(func() {
				for p := uint64(0); p < diffEPages; p++ {
					for off := uint64(0); off < mem.PageSize; off += 512 {
						s.env.Main.WriteU64(s.ebuf+p*mem.PageSize+off, p<<32|off)
					}
				}
			})
		}},
		{"read-strided", func(s *diffState) {
			s.env.Main.ECall(func() {
				for off := uint64(0); off < mem.PageSize; off += 1024 {
					for p := uint64(0); p < diffEPages; p += 3 {
						s.sum += s.env.Main.ReadU64(s.ebuf + p*mem.PageSize + off)
					}
				}
			})
		}},
		{"ocall-syscall", func(s *diffState) {
			s.env.Main.ECall(func() {
				s.sum += s.env.Main.ReadU64(s.ebuf)
				s.env.Main.OCall(func() {
					s.env.Main.WriteU64(s.ubuf, s.sum)
				})
				s.env.Main.Syscall(4096)
			})
		}},
		{"memset", func(s *diffState) {
			// Unaligned start, page-spanning length.
			s.env.Main.Memset(s.ebuf+100, 0xA5, 3*mem.PageSize+700)
			s.env.Main.Memset(s.ubuf+9, 0x5A, 2*mem.PageSize)
		}},
		{"memcpy", func(s *diffState) {
			// Cross domain both ways, unaligned.
			s.env.Main.Memcpy(s.ebuf+5*mem.PageSize+13, s.ubuf+29, 2*mem.PageSize+77)
			s.env.Main.Memcpy(s.ubuf+3, s.ebuf+40*mem.PageSize+9, mem.PageSize+500)
		}},
		{"span-read-write", func(s *diffState) {
			var big [3*mem.PageSize + 40]byte
			s.env.Main.Read(s.ebuf+mem.PageSize-20, big[:])
			for i := range big {
				big[i] ^= 0x3C
			}
			s.env.Main.Write(s.ebuf+60*mem.PageSize-17, big[:])
		}},
		{"parallel", func(s *diffState) {
			s.env.RunParallel(4, func(t *Thread, i int) {
				base := s.ebuf + uint64(i)*16*mem.PageSize
				t.ECall(func() {
					for off := uint64(0); off < 8*mem.PageSize; off += 256 {
						t.WriteU64(base+off, uint64(i)<<48|off)
					}
				})
			})
		}},
		{"force-evict-reload", func(s *diffState) {
			addr := s.ebuf + 2*mem.PageSize
			s.sum += s.env.Main.ReadU64(addr)
			s.env.M.ForceEvict(s.env.Main, addr)
			s.sum += s.env.Main.ReadU64(addr) // load-back
		}},
		{"readback", func(s *diffState) {
			for i := uint64(0); i < diffUPages*mem.PageSize/8; i += 5 {
				s.sum += s.env.Main.ReadU64(s.ubuf + i*8)
			}
			for p := uint64(0); p < diffEPages; p += 2 {
				s.sum += s.env.Main.ReadU64(s.ebuf + p*mem.PageSize + 64)
			}
		}},
		{"extent-dense", func(s *diffState) {
			s.env.Main.ECall(func() {
				w := make([]uint64, 3*mem.PageSize/8+11)
				for i := range w {
					w[i] = uint64(i)*0x9e37 + 5
				}
				s.env.Main.WriteU64Run(s.ebuf+2*mem.PageSize+16, w)
				r := make([]uint64, len(w))
				s.env.Main.ReadU64Run(s.ebuf+2*mem.PageSize+16, r)
				for _, v := range r {
					s.sum += v
				}
			})
			// Byte-granular dense run, unaligned start and odd length.
			b := make([]byte, 2*mem.PageSize+333)
			for i := range b {
				b[i] = byte(i * 7)
			}
			s.env.Main.RunExtent(Extent{Addr: s.ubuf + 123, Stride: 1, Count: uint64(len(b)), Elem: 1, Kind: ExtentWrite, Data: b})
			rb := make([]byte, len(b))
			s.env.Main.RunExtent(Extent{Addr: s.ubuf + 123, Stride: 1, Count: uint64(len(rb)), Elem: 1, Kind: ExtentRead, Data: rb})
			for _, v := range rb {
				s.sum += uint64(v)
			}
		}},
		{"extent-strided", func(s *diffState) {
			s.env.Main.ECall(func() {
				r := make([]uint64, 700)
				s.env.Main.ReadU64Strided(s.ebuf+40, 88, r) // stride not a line multiple
				for _, v := range r {
					s.sum += v
				}
				w := make([]uint64, 300)
				for i := range w {
					w[i] = uint64(i) ^ 0xabcdef
				}
				s.env.Main.WriteU64Strided(s.ebuf+5, 1032, w) // page-crossing stride
				col := make([]uint64, diffEPages)
				s.env.Main.ReadU64Strided(s.ebuf+512, mem.PageSize, col) // one element per page
				for _, v := range col {
					s.sum += v
				}
			})
		}},
		{"extent-misaligned", func(s *diffState) {
			// Elem 8 at addr%8 != 0: elements straddle lines and pages.
			s.env.Main.ECall(func() {
				w := make([]uint64, 900)
				for i := range w {
					w[i] = uint64(i)*3 + 1
				}
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 10*mem.PageSize + 61, Stride: 8, Count: 900, Elem: 8, Kind: ExtentWrite, U64: w})
				r := make([]uint64, 900)
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 10*mem.PageSize + 61, Stride: 8, Count: 900, Elem: 8, Kind: ExtentRead, U64: r})
				for _, v := range r {
					s.sum += v
				}
			})
		}},
		{"extent-bigelem", func(s *diffState) {
			b := make([]byte, 256*40)
			for i := range b {
				b[i] = byte(i*13 + 1)
			}
			s.env.Main.ECall(func() {
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 30*mem.PageSize + 17, Stride: 640, Count: 40, Elem: 256, Kind: ExtentWrite, Data: b})
				rb := make([]byte, len(b))
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 30*mem.PageSize + 17, Stride: 640, Count: 40, Elem: 256, Kind: ExtentRead, Data: rb})
				for _, v := range rb {
					s.sum += uint64(v)
				}
				// Element bigger than a page: every element splits.
				big := make([]byte, 3*(mem.PageSize+200))
				for i := range big {
					big[i] = byte(i ^ 0x55)
				}
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 50*mem.PageSize + 1000, Stride: mem.PageSize + 512, Count: 3, Elem: mem.PageSize + 200, Kind: ExtentWrite, Data: big})
			})
		}},
		{"extent-fill", func(s *diffState) {
			s.env.Main.ECall(func() {
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 61*mem.PageSize, Stride: 32, Count: 400, Elem: 32, Kind: ExtentFill, Fill: 0x7E})
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 64*mem.PageSize + 3, Stride: 96, Count: 200, Elem: 48, Kind: ExtentFill, Fill: 0xC3})
			})
			s.sum += s.env.Main.ReadU64(s.ebuf + 61*mem.PageSize + 128)
		}},
		{"extent-overlap", func(s *diffState) {
			// Stride < Elem: self-overlapping, must take the replay
			// fallback on both machines.
			b := make([]byte, 16*50)
			for i := range b {
				b[i] = byte(i + 3)
			}
			s.env.Main.ECall(func() {
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 70*mem.PageSize + 9, Stride: 8, Count: 50, Elem: 16, Kind: ExtentWrite, Data: b})
				rb := make([]byte, len(b))
				s.env.Main.RunExtent(Extent{Addr: s.ebuf + 70*mem.PageSize + 9, Stride: 8, Count: 50, Elem: 16, Kind: ExtentRead, Data: rb})
				for _, v := range rb {
					s.sum += uint64(v)
				}
			})
		}},
		{"extent-plan", func(s *diffState) {
			w := make([]uint64, 512)
			for i := range w {
				w[i] = uint64(i) * 17
			}
			r := make([]uint64, 512)
			s.env.Main.ECall(func() {
				s.env.Main.RunPlan(ExtentPlan{
					{Addr: s.ebuf + 44*mem.PageSize, Stride: 8, Count: 512, Elem: 8, Kind: ExtentWrite, U64: w},
					{Addr: s.ebuf + 44*mem.PageSize, Stride: 16, Count: 256, Elem: 8, Kind: ExtentRead, U64: r},
					{Addr: s.ebuf + 46*mem.PageSize, Stride: 64, Count: 128, Elem: 64, Kind: ExtentFill, Fill: 1},
				})
			})
			for _, v := range r[:256] {
				s.sum += v
			}
		}},
		{"pagegrain-memops", func(s *diffState) {
			// Exact page-aligned and off-by-one partial first/last pages:
			// the page-granular Memset/Memcpy fast paths must charge MEE
			// and LLC identically to SlowPath on every boundary shape.
			s.env.Main.ECall(func() {
				s.env.Main.Memset(s.ebuf+20*mem.PageSize, 0x33, 2*mem.PageSize)
				s.env.Main.Memset(s.ebuf+23*mem.PageSize-1, 0x44, mem.PageSize+2)
				s.env.Main.Memcpy(s.ebuf+25*mem.PageSize, s.ebuf+20*mem.PageSize, mem.PageSize)
				s.env.Main.Memcpy(s.ebuf+27*mem.PageSize+1, s.ebuf+23*mem.PageSize-1, mem.PageSize)
			})
			s.env.Main.Memcpy(s.ubuf, s.ebuf+25*mem.PageSize, mem.PageSize)
			s.sum += s.env.Main.ReadU64(s.ubuf + 8)
		}},
		{"svm-two-stream", func(s *diffState) {
			// SVM's inner loop: a data row and a weight row on two
			// pages, read in alternation, the weight updated in place.
			tr := s.env.Main
			tr.ECall(func() {
				data, w := s.ebuf+12*mem.PageSize, s.ebuf+33*mem.PageSize
				for pass := 0; pass < 3; pass++ {
					for i := uint64(0); i < 2*mem.PageSize/8; i++ {
						x := tr.ReadU64(data + i*8)
						wi := w + i%(mem.PageSize/8)*8
						tr.WriteU64(wi, tr.ReadU64(wi)+x>>3)
					}
				}
				s.sum += tr.ReadU64(w + 8)
			})
			// The same pattern on untrusted pages, outside the enclave.
			for i := uint64(0); i < mem.PageSize/8; i++ {
				s.sum += tr.ReadU64(s.ubuf+i*8) ^ tr.ReadU64(s.ubuf+5*mem.PageSize+i*8)
			}
		}},
		{"memo-slot-collisions", func(s *diffState) {
			// Pages memoSlots apart share a memo slot: alternating
			// between them re-resolves the page on every access.
			tr := s.env.Main
			tr.ECall(func() {
				a, b := s.ebuf+3*mem.PageSize, s.ebuf+(3+memoSlots)*mem.PageSize
				for i := uint64(0); i < 256; i++ {
					off := i % 64 * 64
					tr.WriteU64(a+off, i)
					s.sum += tr.ReadU64(b+off) + tr.ReadU64(a+off)
				}
			})
			u := s.env.AllocUntrusted((2*memoSlots+1)*mem.PageSize, mem.PageSize)
			for i := uint64(0); i < 300; i++ {
				p := u + i%3*memoSlots*mem.PageSize + i%8*8
				tr.WriteU64(p, i)
				s.sum += tr.ReadU64(p)
			}
		}},
		{"parallel-cross-thread", func(s *diffState) {
			// Main's memo proves a few lines resident. Other threads
			// then either only hit in the shared LLC, or evict those
			// lines with same-set lines on many pages; Main's
			// re-reads must hit in the first case and miss in the
			// second, exactly as on the slow path.
			tr := s.env.Main
			u := s.env.AllocUntrusted(40*mem.PageSize, mem.PageSize)
			warm := func() {
				for r := 0; r < 4; r++ {
					for l := uint64(0); l < 4; l++ {
						s.sum += tr.ReadU64(s.ubuf + l*64)
					}
				}
			}
			warm()
			s.env.RunParallel(3, func(t *Thread, i int) {
				for l := uint64(0); l < 4; l++ {
					s.sum += t.ReadU64(s.ubuf + l*64 + 8)
				}
			})
			warm()
			s.env.RunParallel(3, func(t *Thread, i int) {
				for p := uint64(0); p < 40; p++ {
					for l := uint64(0); l < 4; l++ {
						t.WriteU64(u+p*mem.PageSize+l*64, p+uint64(i))
					}
				}
			})
			warm()
			// Transitions on other threads pollute the shared LLC
			// without touching Main's TLB or memo: enough of them
			// that the rotating pollution phase covers every slot.
			s.env.RunParallel(3, func(t *Thread, i int) {
				for k := uint64(0); k < s.env.M.Costs.PollutionDenom/4; k++ {
					t.ECall(func() {})
				}
			})
			warm()
		}},
		{"extent-evicts-proven", func(s *diffState) {
			// A bulk extent's misses (AccessRun) evict lines the word
			// path has proven resident on another page. The extent's
			// pages follow the proven page, so no memo slot is shared
			// and the proof lives until the epoch moves.
			tr := s.env.Main
			u := s.env.AllocUntrusted(25*mem.PageSize, mem.PageSize)
			w := make([]uint64, 24*mem.PageSize/8)
			for r := 0; r < 3; r++ {
				for k := 0; k < 2; k++ {
					for l := uint64(0); l < 8; l++ {
						s.sum += tr.ReadU64(u + l*64)
					}
				}
				tr.ReadU64Run(u+mem.PageSize, w)
			}
			s.sum += w[len(w)-1]
		}},
		{"relaunch", func(s *diffState) {
			s.env.DestroyEnclave()
			if _, err := s.env.LaunchEnclave(4, 30); err != nil {
				panic(err)
			}
			a := s.env.MustAlloc(4*mem.PageSize, mem.PageSize)
			s.env.Main.ECall(func() {
				s.env.Main.Memset(a, 0x11, 4*mem.PageSize)
				s.sum += s.env.Main.ReadU64(a + 3*mem.PageSize)
			})
		}},
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runLockstep(t *testing.T, cfg Config) {
	t.Helper()
	slowCfg := cfg
	slowCfg.SlowPath = true
	fast := NewMachine(cfg)
	slow := NewMachine(slowCfg)
	fs := &diffState{env: fast.NewEnv(Native)}
	ss := &diffState{env: slow.NewEnv(Native)}

	for _, step := range diffScript() {
		errF := Protect(func() { step.run(fs) })
		errS := Protect(func() { step.run(ss) })
		if errString(errF) != errString(errS) {
			t.Fatalf("%s: fast err %q, slow err %q", step.name, errString(errF), errString(errS))
		}
		cf, cs := fast.Counters.Snapshot(), slow.Counters.Snapshot()
		if cf != cs {
			for _, e := range perf.Events() {
				if cf.Get(e) != cs.Get(e) {
					t.Errorf("%s: %v fast=%d slow=%d", step.name, e, cf.Get(e), cs.Get(e))
				}
			}
			t.FailNow()
		}
		if fc, sc := fs.env.Main.Clock.Cycles(), ss.env.Main.Clock.Cycles(); fc != sc {
			t.Fatalf("%s: cycles fast=%d slow=%d (drift %d)", step.name, fc, sc, int64(fc)-int64(sc))
		}
		if fast.EPC.Resident() != slow.EPC.Resident() {
			t.Fatalf("%s: EPC resident fast=%d slow=%d", step.name,
				fast.EPC.Resident(), slow.EPC.Resident())
		}
	}
	if fs.sum != ss.sum {
		t.Fatalf("data checksum diverged: fast %#x, slow %#x", fs.sum, ss.sum)
	}
}

func TestFastSlowEquivalence(t *testing.T) {
	configs := map[string]Config{
		"base":    {EPCPages: 48, Seed: 7},
		"tinyTLB": {EPCPages: 48, Seed: 7, TLBEntries: 8, TLBWays: 2},
		"l1":      {EPCPages: 48, Seed: 7, L1Bytes: 16 * 1024},
		"tree":    {EPCPages: 48, Seed: 7, IntegrityTree: true},
		"chaos": {EPCPages: 48, Seed: 7, Chaos: &chaos.Config{
			Seed: 3, Rate: 0.01,
			AEXStorm: true, EPCBalloon: true, MemTamper: true, TransitionFault: true,
		}},
		"chaos-heavy": {EPCPages: 48, Seed: 9, IntegrityTree: true, Chaos: &chaos.Config{
			Seed: 11, Rate: 0.08,
			AEXStorm: true, EPCBalloon: true, MemTamper: true,
		}},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) { runLockstep(t, cfg) })
	}
}

// FuzzWordAccess runs a random program of word loads and stores over
// pages that share memo slots (enclave and untrusted), on two threads,
// with ECALL/OCALL transitions (TLB and memo flushes, LLC pollution)
// and forced evictions (shootdowns) mixed in. The fast machine must
// match the SlowPath reference after every op: error, value read,
// counters and both threads' cycles. Each op is three bytes: bit 7 of
// the first picks the thread, its low bits the op; the other two pick
// the page, line and word. variant selects a tiny TLB (memo entries
// displaced with their TLB victims), an L1, or a small LLC that every
// transition pollutes heavily (proofs voided by another thread).
func FuzzWordAccess(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 9, 0, 2, 9, 7, 2, 9, 0x80, 2, 9}, uint8(0))
	f.Add([]byte{4, 1, 5, 7, 3, 0, 6, 2, 0, 0, 2, 0, 0x85, 4, 1, 7, 3, 0}, uint8(1))
	f.Add([]byte{1, 0, 3, 1, 2, 3, 1, 3, 3, 0x80, 0, 3, 0x87, 2, 3, 5, 5, 5}, uint8(2))
	f.Add([]byte{7, 4, 1, 7, 4, 1, 0x84, 1, 0, 0x84, 1, 0, 7, 4, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, prog []byte, variant uint8) {
		if len(prog) > 3*400 {
			prog = prog[:3*400]
		}
		cfg := Config{EPCPages: 48, Seed: 3}
		switch variant % 4 {
		case 1:
			cfg.TLBEntries, cfg.TLBWays = 8, 2
		case 2:
			cfg.L1Bytes = 4 * 1024
		case 3:
			cfg.LLCBytes, cfg.LLCWays = 16*1024, 4
			cfg.Costs = cycles.DefaultCosts()
			cfg.Costs.PollutionDenom = 4
		}
		type side struct {
			m       *Machine
			threads [2]*Thread
			pages   []uint64
		}
		mk := func(slow bool) *side {
			c := cfg
			c.SlowPath = slow
			m := NewMachine(c)
			env := m.NewEnv(Native)
			if _, err := env.LaunchEnclave(2, 2*memoSlots+8); err != nil {
				t.Fatal(err)
			}
			e := env.MustAlloc((2*memoSlots+1)*mem.PageSize, mem.PageSize)
			u := env.AllocUntrusted((memoSlots+1)*mem.PageSize, mem.PageSize)
			// The first four are enclave pages.
			pages := []uint64{e, e + mem.PageSize, e + memoSlots*mem.PageSize,
				e + 2*memoSlots*mem.PageSize, u, u + memoSlots*mem.PageSize}
			return &side{m: m, threads: [2]*Thread{env.Main, env.newThread()}, pages: pages}
		}
		fast, slow := mk(false), mk(true)
		step := func(s *side, op, a, b byte) (v uint64, err error) {
			tr := s.threads[op>>7]
			addr := func(a, b byte) uint64 {
				return s.pages[int(a)%len(s.pages)] + uint64(b)%64*64 + uint64(a>>4)%8*8
			}
			err = Protect(func() {
				switch op & 7 {
				case 0:
					v = tr.ReadU64(addr(a, b))
				case 1:
					tr.WriteU64(addr(a, b), uint64(a)<<8|uint64(b))
				case 2:
					v = uint64(tr.ReadU32(addr(a, b) + 4))
				case 3:
					tr.WriteU8(addr(a, b)+1, a^b)
				case 4:
					// An empty ECALL only flushes and pollutes.
					tr.ECall(func() {
						if a&1 == 0 {
							v = tr.ReadU64(addr(a, b)) + tr.ReadU64(addr(b, a))
						}
					})
				case 5:
					tr.ECall(func() {
						v = tr.ReadU64(addr(a, b))
						tr.OCall(func() { tr.WriteU64(s.pages[4]+uint64(b)%64*64, v) })
						v += tr.ReadU64(addr(a, b))
					})
				case 6:
					if s.m.ForceEvict(tr, s.pages[int(a)%4]) {
						v = 1
					}
				case 7:
					// Every word of one line: repeats of a line the
					// memo has just seen resident.
					base := addr(a, b) &^ (mem.LineSize - 1)
					for w := uint64(0); w < mem.LineSize; w += 8 {
						v += tr.ReadU64(base + w)
					}
				}
			})
			return v, err
		}
		for i := 0; i+3 <= len(prog); i += 3 {
			op, a, b := prog[i], prog[i+1], prog[i+2]
			fv, ferr := step(fast, op, a, b)
			sv, serr := step(slow, op, a, b)
			if errString(ferr) != errString(serr) || fv != sv {
				t.Fatalf("op %d (%d %d %d): fast %#x %v, slow %#x %v", i/3, op, a, b, fv, ferr, sv, serr)
			}
			if cf, cs := fast.m.Counters.Snapshot(), slow.m.Counters.Snapshot(); cf != cs {
				for _, e := range perf.Events() {
					if cf.Get(e) != cs.Get(e) {
						t.Errorf("op %d: %v fast=%d slow=%d", i/3, e, cf.Get(e), cs.Get(e))
					}
				}
				t.FailNow()
			}
			for k := range fast.threads {
				if fc, sc := fast.threads[k].Clock.Cycles(), slow.threads[k].Clock.Cycles(); fc != sc {
					t.Fatalf("op %d: thread %d cycles fast=%d slow=%d", i/3, k, fc, sc)
				}
			}
		}
	})
}

// A TLB entry can outlive its page's residency when an eviction
// bypasses the machine's shootdown (as tests forcing eviction order
// do with SetEvictHook). The access path must then fall back to the
// walk-and-fault path instead of dereferencing the dead translation.
func TestStaleTLBEntryFallsBackToWalk(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	enc, err := env.LaunchEnclave(2, 2+2*memoSlots)
	if err != nil {
		t.Fatal(err)
	}
	buf := env.MustAlloc((memoSlots+1)*mem.PageSize, mem.PageSize)
	tr := env.Main
	vpn := mem.PageNumber(buf)

	tr.WriteU64(buf, 0xfeed) // install TLB entry + memo for page 0
	// Touch the page that shares page 0's memo slot: it displaces
	// page 0's memo entry while page 0's TLB entry stays warm.
	tr.WriteU64(buf+memoSlots*mem.PageSize, 1)
	if tr.memoLookup(vpn) != nil || !tr.tlb.Lookup(vpn) {
		t.Fatalf("setup: memo hit %v, TLB hit %v; want memo miss, TLB hit",
			tr.memoLookup(vpn) != nil, tr.tlb.Lookup(vpn))
	}
	// Evict page 0 behind the TLB's back: the hook override suppresses
	// the machine's shootdown.
	m.EPC.SetEvictHook(func(mem.PageID) {})
	if evicted, err := m.EPC.EvictPage(&tr.Clock, &m.Costs, enc.PageID(buf)); err != nil || !evicted {
		t.Fatalf("EvictPage = %v, %v; want eviction", evicted, err)
	}

	misses := m.Counters.Get(perf.DTLBMisses)
	loads := m.Counters.Get(perf.EPCLoadBacks)
	if got := tr.ReadU64(buf); got != 0xfeed { // must not panic
		t.Fatalf("read after stale-TLB fallback = %#x, want 0xfeed", got)
	}
	if m.Counters.Get(perf.DTLBMisses) != misses+1 {
		t.Errorf("DTLBMisses = %d, want %d (stale entry must count as a miss)",
			m.Counters.Get(perf.DTLBMisses), misses+1)
	}
	if m.Counters.Get(perf.EPCLoadBacks) != loads+1 {
		t.Errorf("EPCLoadBacks = %d, want %d (page must be faulted back)",
			m.Counters.Get(perf.EPCLoadBacks), loads+1)
	}
}

// balloonFailureMachine builds a machine where every access fires an
// EPC-balloon shrink whose evictions fail: the integrity tree has
// capacity for a single page, so the second EWB errors out of Resize.
func balloonFailureMachine(t *testing.T) (*Machine, *Env, uint64) {
	t.Helper()
	m := NewMachine(Config{EPCPages: 64, Chaos: &chaos.Config{
		Seed:       5,
		EPCBalloon: true, BalloonRate: 1.0,
		BalloonMinFrac: 0.3, BalloonMaxFrac: 0.3,
	}})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(40, 56); err != nil {
		t.Fatal(err)
	}
	ebuf := env.MustAlloc(8*mem.PageSize, mem.PageSize)
	// From here on, any eviction beyond the first dies in the tree.
	m.EPC.SetIntegrityTree(mee.NewIntegrityTree(1, 0))
	return m, env, ebuf
}

// A balloon resize that fails during an access *outside* any enclave
// used to be dropped on the floor (err != nil && enc != nil guarded
// the whole error path). It must surface in the BalloonFailures
// counter while leaving the machine usable.
func TestBalloonFailureOutsideEnclaveIsCounted(t *testing.T) {
	m, env, _ := balloonFailureMachine(t)
	ubuf := env.AllocUntrusted(mem.PageSize, mem.PageSize)

	if err := env.Main.TryWrite(ubuf, []byte{1, 2, 3}); err != nil {
		t.Fatalf("untrusted write after failed balloon: %v", err)
	}
	if got := m.Counters.Get(perf.BalloonFailures); got == 0 {
		t.Fatal("BalloonFailures = 0, want > 0 after a failed untrusted-side resize")
	}
	// The machine survived: the same access still works and the
	// enclave is untouched.
	var b [3]byte
	if err := env.Main.TryRead(ubuf, b[:]); err != nil {
		t.Fatalf("machine unusable after counted balloon failure: %v", err)
	}
	if env.Enclave.Aborted() {
		t.Error("untrusted-side balloon failure aborted the enclave")
	}
}

// The same failure during an enclave access aborts that enclave (the
// OS destroyed pages the enclave depends on) — and is also counted.
func TestBalloonFailureInsideEnclaveAborts(t *testing.T) {
	m, env, ebuf := balloonFailureMachine(t)

	err := env.Main.TryWrite(ebuf, []byte{1})
	if err == nil {
		t.Fatal("enclave access with failing balloon resize succeeded")
	}
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v (%T), want *AbortError", err, err)
	}
	if !env.Enclave.Aborted() {
		t.Error("enclave not marked aborted")
	}
	if m.Counters.Get(perf.BalloonFailures) == 0 {
		t.Error("BalloonFailures = 0, want > 0")
	}
}

// transitionCost multiplies through float64; gigantic base costs at
// high concurrency used to overflow the uint64 conversion and wrap to
// garbage. It must saturate instead.
func TestTransitionCostSaturates(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	tr := env.Main

	env.SetConcurrency(1) // no contention: identity
	if got := tr.transitionCost(12345); got != 12345 {
		t.Errorf("uncontended cost = %d, want 12345", got)
	}

	env.SetConcurrency(1 << 20)
	m.Costs.ContentionFactor = 1e12
	if got := tr.transitionCost(math.MaxUint64 / 2); got != math.MaxUint64 {
		t.Errorf("overflowing cost = %d, want MaxUint64 saturation", got)
	}
	// Just below the boundary stays exact-ish (no clamp).
	m.Costs.ContentionFactor = 0.5
	env.SetConcurrency(3)
	if got := tr.transitionCost(1000); got != 2000 {
		t.Errorf("cost(1000, f=2.0) = %d, want 2000", got)
	}
	// A (nonsensical) negative factor must not wrap around either.
	m.Costs.ContentionFactor = -10
	env.SetConcurrency(1000)
	if got := tr.transitionCost(1000); got != 0 {
		t.Errorf("negative-factor cost = %d, want 0", got)
	}
}

// The memo must die with its TLB entry when round-robin displacement
// (not a flush or shootdown) evicts the translation: with a 2-entry
// direct-conflict TLB, alternating pages must keep producing the same
// counters as the slow path — covered by TestFastSlowEquivalence's
// tinyTLB config — and, checked directly here, a displaced page's
// re-access must be a TLB miss, not a phantom memo hit.
func TestMemoDisplacedWithTLBVictim(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64, TLBEntries: 1, TLBWays: 1})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(2, 40); err != nil {
		t.Fatal(err)
	}
	buf := env.MustAlloc(4*mem.PageSize, mem.PageSize)
	tr := env.Main

	tr.WriteU64(buf, 1) // page 0: miss, installs sole TLB entry
	misses := m.Counters.Get(perf.DTLBMisses)
	tr.WriteU64(buf+mem.PageSize, 2) // page 1 displaces page 0
	if got := m.Counters.Get(perf.DTLBMisses); got != misses+1 {
		t.Fatalf("DTLBMisses after displacement = %d, want %d", got, misses+1)
	}
	tr.WriteU64(buf, 3) // page 0 again: must be a genuine miss
	if got := m.Counters.Get(perf.DTLBMisses); got != misses+2 {
		t.Fatalf("DTLBMisses after re-access = %d, want %d (memo outlived TLB entry)",
			got, misses+2)
	}
}

func TestSlowPathConfigRoundTrip(t *testing.T) {
	m := NewMachine(Config{EPCPages: 48, SlowPath: true})
	if !m.Config().SlowPath {
		t.Fatal("SlowPath lost by withDefaults")
	}
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(2, 20); err != nil {
		t.Fatal(err)
	}
	a := env.MustAlloc(mem.PageSize, mem.PageSize)
	env.Main.WriteU64(a, 42)
	if got := env.Main.ReadU64(a); got != 42 {
		t.Fatalf("slow-path read = %d, want 42", got)
	}
}
