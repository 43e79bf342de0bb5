// Micro-benchmarks of the bulk and page-resolution access paths that
// the repository benchmark's layer probes do not cover. Run with
//
//	go test -run '^$' -bench . ./internal/sgx
package sgx_test

import (
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/sgx"
)

// BenchmarkAccessPageStride is the memoization-hostile counterpart of
// a sequential ReadU64 sweep: every access lands on a different page,
// and the pages cycled outnumber the per-thread page memo's slots, so
// each access pays the full page-resolution path (a TLB hit).
func BenchmarkAccessPageStride(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 160
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + (uint64(i)%pages)*mem.PageSize)
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
