// Benchmarks regenerating every table and figure of the SGXGauge
// paper (one Benchmark per experiment, reporting each experiment's
// headline numbers as custom metrics), plus micro-benchmarks of the
// simulation substrate itself.
//
// Every iteration of an experiment benchmark builds a fresh Runner, so
// its result cache starts cold and each iteration simulates the whole
// experiment: ns/op, B/op and allocs/op are per regeneration, and the
// reported metrics mirror EXPERIMENTS.md.
package sgxgauge_test

import (
	"testing"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/harness"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// benchEPCPages is the simulated EPC scale used by the experiment
// benchmarks (kept below the CLI default so the full bench suite runs
// in a couple of minutes).
const benchEPCPages = 192

// newRunner returns a Runner with a cold result cache.
func newRunner() *harness.Runner {
	r := harness.NewRunner(benchEPCPages)
	r.Seed = 1
	return r
}

// BenchmarkTable2 regenerates the workload/settings inventory.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates the EPC-stress motivation experiment.
func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	var d *harness.Figure2Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = newRunner().Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Overhead[workloads.High], "overhead-high-x")
	b.ReportMetric(d.DTLBRatio[workloads.High], "dtlb-high-x")
	b.ReportMetric(d.EvictRatio[workloads.High], "evict-vs-low-x")
}

// BenchmarkFigure3 regenerates the Lighttpd concurrency sweep.
func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	var pts []harness.Figure3Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = newRunner().Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[len(pts)-1].Ratio, "latency-ratio-16c")
}

// BenchmarkFigure4 regenerates the LibOS-vs-Native comparison.
func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.Figure4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = newRunner().Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	var min, max float64 = 1e9, 0
	for _, r := range rows {
		for _, s := range workloads.Sizes() {
			if r.Ratio[s] < min {
				min = r.Ratio[s]
			}
			if r.Ratio[s] > max {
				max = r.Ratio[s]
			}
		}
	}
	b.ReportMetric(min, "libos-vs-native-min-x")
	b.ReportMetric(max, "libos-vs-native-max-x")
}

// BenchmarkTable4 regenerates the headline overhead table.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	var d *harness.Table4Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = newRunner().Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.NativeVsVanilla.Overhead[workloads.Low], "native-low-x")
	b.ReportMetric(d.NativeVsVanilla.Overhead[workloads.Medium], "native-medium-x")
	b.ReportMetric(d.NativeVsVanilla.Overhead[workloads.High], "native-high-x")
	b.ReportMetric(d.LibOSVsNative.Overhead[workloads.Medium], "libos-vs-native-x")
}

// BenchmarkFigure5 regenerates per-workload Native overheads and
// evictions.
func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.Figure5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = newRunner().Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if row.Name == "BTree" {
			lo := float64(row.Evictions[workloads.Low])
			if lo == 0 {
				lo = 1
			}
			b.ReportMetric(float64(row.Evictions[workloads.Medium])/lo, "btree-evict-jump-x")
		}
	}
}

// BenchmarkFigure6a regenerates the empty-workload LibOS probe.
func BenchmarkFigure6a(b *testing.B) {
	b.ReportAllocs()
	var d *harness.Figure6aData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = newRunner().Figure6a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.ECalls), "ecalls")
	b.ReportMetric(float64(d.OCalls), "ocalls")
	b.ReportMetric(float64(d.AEXs), "aex")
	b.ReportMetric(float64(d.EPCEvictions), "evictions")
	b.ReportMetric(float64(d.EPCLoadBacks), "loadbacks")
}

// BenchmarkFigure6bc regenerates LibOS-mode overheads and load-backs.
func BenchmarkFigure6bc(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.Figure6bcRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = newRunner().Figure6bc()
		if err != nil {
			b.Fatal(err)
		}
	}
	var worst float64
	for _, row := range rows {
		if row.Overhead[workloads.High] > worst {
			worst = row.Overhead[workloads.High]
		}
	}
	b.ReportMetric(worst, "libos-worst-high-x")
}

// BenchmarkFigure6d regenerates the switchless comparison.
func BenchmarkFigure6d(b *testing.B) {
	b.ReportAllocs()
	var d *harness.Figure6dData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = newRunner().Figure6d()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(d.SwitchlessLatency-d.DefaultLatency)/d.DefaultLatency, "latency-change-pct")
	b.ReportMetric(100*(float64(d.SwitchlessDTLB)/float64(d.DefaultDTLB)-1), "dtlb-change-pct")
}

// BenchmarkFigure7 regenerates the SGX driver-operation latencies.
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.Figure7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = newRunner().Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		switch row.Op {
		case epc.OpEWB:
			b.ReportMetric(row.MeanUS, "ewb-us")
		case epc.OpELDU:
			b.ReportMetric(row.MeanUS, "eldu-us")
		}
	}
}

// BenchmarkFigure8 regenerates the Native-mode counter heat map.
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	var d *harness.Figure8Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = newRunner().Figure8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Ratio["Blockchain"][workloads.Low][perf.DTLBMisses], "blockchain-dtlb-x")
}

// BenchmarkTable5 regenerates the counter-importance regressions.
func BenchmarkTable5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Table5()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFigure9 regenerates the EPC activity timelines.
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	var d *harness.Figure9Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = newRunner().Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.LibOS[len(d.LibOS)-1].Evictions), "libos-evictions")
	b.ReportMetric(float64(d.Native[len(d.Native)-1].Evictions), "native-evictions")
}

// BenchmarkFigure10 regenerates the Iozone protected-files comparison.
func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.Figure10Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = newRunner().Figure10()
		if err != nil {
			b.Fatal(err)
		}
	}
	van, lib, pf := rows[0], rows[1], rows[2]
	b.ReportMetric(100*(lib.PhaseCycles["read"]/van.PhaseCycles["read"]-1), "libos-read-ovh-pct")
	b.ReportMetric(100*(pf.PhaseCycles["read"]/van.PhaseCycles["read"]-1), "pf-read-ovh-pct")
	b.ReportMetric(100*(pf.PhaseCycles["write"]/van.PhaseCycles["write"]-1), "pf-write-ovh-pct")
}

// --- substrate micro-benchmarks (real wall-clock performance of the
// simulator itself) ---

// BenchmarkMEESealPage measures sealing one 4 KiB page (AES-CTR +
// HMAC-SHA-256).
func BenchmarkMEESealPage(b *testing.B) {
	e := mee.New(1)
	var f mem.Frame
	id := mem.PageID{Enclave: 1, VPN: 7}
	b.SetBytes(mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.SealPage(id, uint64(i+1), &f)
	}
}

// BenchmarkEPCFaultLoadBack measures a full evict/load-back cycle.
func BenchmarkEPCFaultLoadBack(b *testing.B) {
	counters := &perf.Counters{}
	e := epc.New(32, mee.New(1), mem.NewBackingStore(), counters)
	clk := &cycles.Clock{}
	costs := cycles.DefaultCosts()
	// Over-subscribe so every round-robin touch faults.
	ids := make([]mem.PageID, 64)
	for i := range ids {
		ids[i] = mem.PageID{Enclave: 1, VPN: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if _, ok := e.Lookup(id); !ok {
			if _, _, err := e.Fault(clk, &costs, id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSpaceReadU64 measures one simulated 8-byte enclave read
// through the full dTLB/LLC/EPC path.
func BenchmarkSpaceReadU64(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	addr := env.MustAlloc(64*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, 64*mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + uint64(i%(64*mem.PageSize/8))*8)
	}
}

// BenchmarkAccessPage measures the simulator's per-access hot path on
// its most common shape: a sequential line-strided sweep over an
// enclave buffer, where consecutive accesses stay on the same page in
// runs of 64 (the same-page streak the fast path memoizes).
func BenchmarkAccessPage(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	span := uint64(pages * mem.PageSize / mem.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + (uint64(i)%span)*mem.LineSize)
	}
}

// BenchmarkAccessPageStride is the memoization-hostile counterpart:
// every access lands on a different page, so each one pays the full
// page-resolution path.
func BenchmarkAccessPageStride(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + (uint64(i)%pages)*mem.PageSize)
	}
}

// BenchmarkExtentRead measures the compiled access-stream path on the
// same shape as BenchmarkAccessPage — a line-strided sweep over an
// enclave buffer — but issued as one Extent per page-sized run
// instead of 64 individual ReadU64 calls. A 64-byte stride is
// line-confined, so this takes the same bulk path as dense runs, with
// one touch per line and a per-element word gather. The acceptance
// bar for the extent compiler is ≥2x BenchmarkAccessPage per
// simulated access; b.N counts simulated accesses so the two ns/op
// are comparable.
func BenchmarkExtentRead(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	const perPage = mem.PageSize / mem.LineSize // line-strided accesses per page
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	buf := make([]uint64, perPage)
	b.ResetTimer()
	for i := 0; i < b.N; i += perPage {
		page := (uint64(i) / perPage) % pages
		tr.RunExtent(sgx.Extent{
			Addr:   addr + page*mem.PageSize,
			Stride: mem.LineSize,
			Count:  perPage,
			Elem:   8,
			Kind:   sgx.ExtentRead,
			U64:    buf,
		})
	}
}

// BenchmarkExtentWrite is BenchmarkExtentRead with dense word writes:
// one Extent per page instead of 512 WriteU64 calls.
func BenchmarkExtentWrite(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	const perPage = mem.PageSize / 8 // dense words per page
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	buf := make([]uint64, perPage)
	for i := range buf {
		buf[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += perPage {
		page := (uint64(i) / perPage) % pages
		tr.RunExtent(sgx.Extent{
			Addr:   addr + page*mem.PageSize,
			Stride: 8,
			Count:  perPage,
			Elem:   8,
			Kind:   sgx.ExtentWrite,
			U64:    buf,
		})
	}
}

// BenchmarkMemset measures bulk zeroing of an enclave region (the
// Memset bulk path; one op = 64 KiB).
func BenchmarkMemset(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const n = 64 * 1024
	addr := env.MustAlloc(n, mem.PageSize)
	tr := env.Main
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Memset(addr, byte(i), n)
	}
}

// BenchmarkMemcpy measures a bulk copy between two enclave regions
// (the Memcpy bulk path; one op = 32 KiB).
func BenchmarkMemcpy(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const n = 32 * 1024
	src := env.MustAlloc(n, mem.PageSize)
	dst := env.MustAlloc(n, mem.PageSize)
	tr := env.Main
	tr.Memset(src, 7, n)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Memcpy(dst, src, n)
	}
}

// BenchmarkECall measures one simulated enclave transition round trip.
func BenchmarkECall(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 32); err != nil {
		b.Fatal(err)
	}
	tr := env.Main
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ECall(func() {})
	}
}

// BenchmarkOCall measures one simulated OCALL round trip from inside
// an enclave.
func BenchmarkOCall(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 32); err != nil {
		b.Fatal(err)
	}
	tr := env.Main
	b.ResetTimer()
	tr.ECall(func() {
		for i := 0; i < b.N; i++ {
			tr.OCall(func() {})
		}
	})
}

// BenchmarkWorkloadBTreeNative measures one full B-Tree Native run at
// a small scale (end-to-end simulator throughput).
func BenchmarkWorkloadBTreeNative(b *testing.B) {
	b.ReportAllocs()
	w, err := suite.ByName("BTree")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// A fresh Runner per iteration keeps the result cache cold, so
		// every iteration measures a full simulated run.
		res, err := new(harness.Runner).Run(harness.Spec{
			Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: 96, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
