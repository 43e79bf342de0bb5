// Ablation benchmarks for the design choices DESIGN.md calls out:
// each disables or exaggerates one mechanism of the simulated SGX
// machine and reports how the headline overhead (B-Tree at the Medium,
// ~EPC-sized setting, Native vs Vanilla) responds. Together they show
// which mechanism contributes what to the paper's observed costs.
package sgxgauge_test

import (
	"testing"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// ablationOverhead measures Native/Vanilla overhead for B-Tree Medium
// under the given machine configuration.
func ablationOverhead(b *testing.B, cfg *sgx.Config) float64 {
	b.Helper()
	w, err := suite.ByName("BTree")
	if err != nil {
		b.Fatal(err)
	}
	// A fresh Runner keeps the result cache cold across b.N calls, so
	// every iteration measures two full simulated runs.
	r := new(harness.Runner)
	spec := harness.Spec{Workload: w, Size: workloads.Medium, EPCPages: 96, Seed: 1, Machine: cfg}
	spec.Mode = sgx.Vanilla
	van := r.Run(spec)
	if van.Err != nil {
		b.Fatal(van.Err)
	}
	spec.Mode = sgx.Native
	nat := r.Run(spec)
	if nat.Err != nil {
		b.Fatal(nat.Err)
	}
	return harness.Overhead(nat, van)
}

// BenchmarkAblationBaseline is the reference point.
func BenchmarkAblationBaseline(b *testing.B) {
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, nil)
	}
	b.ReportMetric(ovh, "overhead-x")
}

// BenchmarkAblationNoMEE removes the per-line memory-encryption
// charge: the confidentiality cost of §2.2.
func BenchmarkAblationNoMEE(b *testing.B) {
	costs := cycles.DefaultCosts()
	costs.MEELine = 0
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, &sgx.Config{Costs: costs})
	}
	b.ReportMetric(ovh, "overhead-x")
}

// BenchmarkAblationSyncEviction charges the full EWB latency to the
// faulting thread (no background write-back overlap).
func BenchmarkAblationSyncEviction(b *testing.B) {
	costs := cycles.DefaultCosts()
	costs.AsyncEvictShare = 1.0
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, &sgx.Config{Costs: costs})
	}
	b.ReportMetric(ovh, "overhead-x")
}

// BenchmarkAblationNoTLBFlushCost removes transition TLB pollution of
// the LLC (flushes still empty the TLB).
func BenchmarkAblationNoPollution(b *testing.B) {
	costs := cycles.DefaultCosts()
	costs.PollutionDenom = 0
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, &sgx.Config{Costs: costs})
	}
	b.ReportMetric(ovh, "overhead-x")
}

// BenchmarkAblationFreeTransitions zeroes ECALL/OCALL/AEX costs,
// isolating the paging component of the overhead.
func BenchmarkAblationFreeTransitions(b *testing.B) {
	costs := cycles.DefaultCosts()
	costs.ECallEnter, costs.ECallExit = 0, 0
	costs.OCallExit, costs.OCallReturn = 0, 0
	costs.AEX = 0
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, &sgx.Config{Costs: costs})
	}
	b.ReportMetric(ovh, "overhead-x")
}

// BenchmarkAblationIntegrityTree enables the VAULT-style Merkle tree
// over evicted pages.
func BenchmarkAblationIntegrityTree(b *testing.B) {
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, &sgx.Config{IntegrityTree: true})
	}
	b.ReportMetric(ovh, "overhead-x")
}

// BenchmarkAblationSmallTLB quarters the TLB reach, deepening the
// flush penalty.
func BenchmarkAblationSmallTLB(b *testing.B) {
	var ovh float64
	for i := 0; i < b.N; i++ {
		ovh = ablationOverhead(b, &sgx.Config{TLBEntries: 48})
	}
	b.ReportMetric(ovh, "overhead-x")
}
