package main

import (
	"fmt"
	"time"

	"sgxgauge/internal/cache"
	"sgxgauge/internal/cycles"
	"sgxgauge/internal/enclave"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/tlb"
)

// probe times a fixed synthetic call stream into one public function
// of one substrate layer. run performs n batches of the stream and
// returns the time spent in the probed calls and how many units
// (calls, or simulated accesses or lines) they covered.
type probe struct {
	name string
	per  time.Duration // the reported unit: ns or ms per unit
	run  func(n int) (time.Duration, int, error)
}

// probeSink keeps probed results live so the compiler cannot drop the
// calls.
var probeSink uint64

// probeSamples is how many times each probe runs; the median is
// reported.
const probeSamples = 3

// runProbes runs every probe in the parent and returns each one's
// median time per unit.
func runProbes(short bool) (map[string]float64, error) {
	n := 10
	if short {
		n = 1
	}
	out := map[string]float64{}
	for _, p := range probes() {
		var per []float64
		for i := 0; i < probeSamples; i++ {
			d, units, err := p.run(n)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(d)/float64(units)/float64(p.per))
		}
		out[p.name] = median(per)
	}
	return out, nil
}

// xorshift is the probes' fixed pseudo-random stream.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func stream(n int, mod uint64) []uint64 {
	x := xorshift(0x9e3779b97f4a7c15)
	out := make([]uint64, n)
	for i := range out {
		out[i] = x.next() % mod
	}
	return out
}

func probes() []probe {
	return []probe{
		{"tlb.lookup_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			t := tlb.New(1024, 4)
			for v := uint64(0); v < 768; v++ {
				t.Insert(v)
			}
			vpns := stream(20000*n, 2048)
			start := time.Now()
			for _, v := range vpns {
				if t.Lookup(v) {
					probeSink++
				}
			}
			return time.Since(start), len(vpns), nil
		}},
		{"tlb.insert_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			t := tlb.New(1024, 4)
			vpns := stream(20000*n, 4096)
			start := time.Now()
			for _, v := range vpns {
				victim, _ := t.Insert(v)
				probeSink += victim
			}
			return time.Since(start), len(vpns), nil
		}},
		{"cache.access_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			c := cache.NewLLC(256<<10, 16)
			lines := stream(20000*n, 8192)
			start := time.Now()
			for _, l := range lines {
				if c.Access(l) {
					probeSink++
				}
			}
			return time.Since(start), len(lines), nil
		}},
		{"cache.access_run_ns_per_line", time.Nanosecond, func(n int) (time.Duration, int, error) {
			c := cache.NewLLC(256<<10, 16)
			calls := 500 * n
			start := time.Now()
			for i := 0; i < calls; i++ {
				h, _ := c.AccessRun(uint64(i*64)%16384, 64)
				probeSink += h
			}
			return time.Since(start), calls * 64, nil
		}},
		{"cache.invalidate_range_ns_per_line", time.Nanosecond, func(n int) (time.Duration, int, error) {
			c := cache.NewLLC(256<<10, 16)
			var d time.Duration
			for r := 0; r < 2*n; r++ {
				c.AccessRun(0, 4096)
				start := time.Now()
				for i := uint64(0); i < 64; i++ {
					c.InvalidateRange(i*64, 64)
				}
				d += time.Since(start)
			}
			return d, 2 * n * 4096, nil
		}},
		{"epc.fault_evict_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			// 64 pages round-robin through a 32-page EPC: every touch
			// faults, evicting (EWB) and loading back (ELDU).
			e := epc.New(32, mee.New(1), mem.NewBackingStore(), &perf.Counters{})
			clk := &cycles.Clock{}
			costs := cycles.DefaultCosts()
			faults := 0
			start := time.Now()
			for i := 0; i < 300*n; i++ {
				id := mem.PageID{Enclave: 1, VPN: uint64(i % 64)}
				if _, ok := e.Lookup(id); ok {
					continue
				}
				if _, _, err := e.Fault(clk, &costs, id); err != nil {
					return 0, 0, err
				}
				faults++
			}
			return time.Since(start), faults, nil
		}},
		{"mee.seal_page_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			e, ids, versions, frames, sealed := sealInputs()
			start := time.Now()
			for i := 0; i < 10*n; i++ {
				e.SealBatch(ids, versions, frames, sealed)
			}
			return time.Since(start), 10 * n * len(ids), nil
		}},
		{"mee.verify_page_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			e, ids, versions, frames, sealed := sealInputs()
			e.SealBatch(ids, versions, frames, sealed)
			start := time.Now()
			for i := 0; i < 10*n; i++ {
				if err := e.VerifyBatch(sealed, versions, frames); err != nil {
					return 0, 0, err
				}
			}
			return time.Since(start), 10 * n * len(ids), nil
		}},
		{"enclave.extend_measurement_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			enc := enclave.New(1, 1<<32, 1<<16)
			var f mem.Frame
			calls := 200 * n
			start := time.Now()
			for i := 0; i < calls; i++ {
				enc.ExtendMeasurement(uint64(i), &f)
			}
			return time.Since(start), calls, nil
		}},
		{"sgx.read_u64_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			tr, addr, err := probeThread(256, 64)
			if err != nil {
				return 0, 0, err
			}
			reads := 20000 * n
			span := uint64(64 * mem.PageSize / mem.LineSize)
			start := time.Now()
			for i := 0; i < reads; i++ {
				probeSink += tr.ReadU64(addr + (uint64(i)%span)*mem.LineSize)
			}
			return time.Since(start), reads, nil
		}},
		extentProbe("sgx.extent_dense_ns", 8, 8, mem.PageSize/8, true),
		extentProbe("sgx.extent_line_ns", mem.LineSize, 8, mem.PageSize/mem.LineSize, true),
		extentProbe("sgx.extent_word_ns", 16, 8, mem.PageSize/16, true),
		extentProbe("sgx.extent_split_ns", 12, 12, mem.PageSize/12, false),
		{"sgx.ecall_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			tr, _, err := probeThread(64, 1)
			if err != nil {
				return 0, 0, err
			}
			calls := 2000 * n
			start := time.Now()
			for i := 0; i < calls; i++ {
				tr.ECall(func() {})
			}
			return time.Since(start), calls, nil
		}},
		{"sgx.ocall_ns", time.Nanosecond, func(n int) (time.Duration, int, error) {
			tr, _, err := probeThread(64, 1)
			if err != nil {
				return 0, 0, err
			}
			calls := 2000 * n
			start := time.Now()
			tr.ECall(func() {
				for i := 0; i < calls; i++ {
					tr.OCall(func() {})
				}
			})
			return time.Since(start), calls, nil
		}},
		{"libos.start_ms", time.Millisecond, func(n int) (time.Duration, int, error) {
			m := sgx.NewMachine(sgx.Config{EPCPages: epcPages, Seed: 1})
			fs := osal.NewFS()
			fs.Create("input.dat", make([]byte, 64<<10))
			start := time.Now()
			if _, err := libos.Start(m, fs, libos.Manifest{Binary: "probe", Files: fs.List()}); err != nil {
				return 0, 0, err
			}
			return time.Since(start), 1, nil
		}},
	}
}

// sealInputs is one 16-page eviction batch.
func sealInputs() (*mee.Engine, []mem.PageID, []uint64, []*mem.Frame, []*mem.SealedPage) {
	const batch = 16
	ids := make([]mem.PageID, batch)
	versions := make([]uint64, batch)
	frames := make([]*mem.Frame, batch)
	for i := range ids {
		ids[i] = mem.PageID{Enclave: 1, VPN: uint64(i)}
		versions[i] = uint64(i + 1)
		frames[i] = &mem.Frame{}
		for j := range frames[i].Data {
			frames[i].Data[j] = byte(i + j)
		}
	}
	return mee.New(1), ids, versions, frames, make([]*mem.SealedPage, batch)
}

// probeThread launches an enclave on a fresh machine and returns its
// main thread and a zeroed enclave buffer of the given pages.
func probeThread(epc, pages int) (*sgx.Thread, uint64, error) {
	m := sgx.NewMachine(sgx.Config{EPCPages: epc})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 32+pages); err != nil {
		return nil, 0, err
	}
	addr := env.MustAlloc(uint64(pages)*mem.PageSize, mem.PageSize)
	env.Main.Memset(addr, 0, uint64(pages)*mem.PageSize)
	return env.Main, addr, nil
}

// extentProbe times RunExtent on one extent shape, one extent per page
// over a 64-page enclave buffer; the unit is one simulated access.
// The shapes select the dispatch paths: stride == elem (dense), a
// word per cache line (line), a word-aligned stride (word), and
// unaligned elements that straddle lines (split).
func extentProbe(name string, stride uint64, elem uint32, count uint64, words bool) probe {
	return probe{name, time.Nanosecond, func(n int) (time.Duration, int, error) {
		const pages = 64
		tr, addr, err := probeThread(256, pages)
		if err != nil {
			return 0, 0, err
		}
		x := sgx.Extent{Stride: stride, Count: count, Elem: elem, Kind: sgx.ExtentRead}
		if words {
			x.U64 = make([]uint64, count)
		} else {
			x.Data = make([]byte, count*uint64(elem))
		}
		extents := 20 * n
		start := time.Now()
		for i := 0; i < extents; i++ {
			x.Addr = addr + uint64(i%pages)*mem.PageSize
			tr.RunExtent(x)
		}
		return time.Since(start), extents * int(count), nil
	}}
}
