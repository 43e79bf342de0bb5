// Package sgxgauge is a from-scratch Go reproduction of "SGXGauge: A
// Comprehensive Benchmark Suite for Intel SGX" (Kumar, Panda, Sarangi
// — ISPASS 2022).
//
// Because real SGX hardware is not assumed, the repository implements
// a functional and performance simulation of the full SGX stack — the
// Enclave Page Cache with its EPCM, the Memory Encryption Engine
// (real AES-CTR + HMAC on every evicted page), per-thread dTLBs with
// flush-on-transition semantics, a shared LLC, enclave lifecycle with
// real SHA-256 measurement, ECALL/OCALL/AEX transitions, a
// Graphene-style library OS with manifests, trusted-file verification
// and an encrypting protected file system — and re-implements the ten
// suite workloads of the paper's Table 2 as real algorithms running
// against the simulated memory hierarchy.
//
// The library lives under internal/; the executables are:
//
//	cmd/sgxgauge   — the one CLI: run a workload or scenario and
//	                 inspect its counters or trace ("run"), regenerate
//	                 every table and figure of the paper ("report"),
//	                 and serve both over HTTP ("serve")
//	cmd/sgxlint    — the in-tree invariant lint
//
// The repository benchmark is `go run ./bench`. See README.md,
// DESIGN.md and EXPERIMENTS.md.
package sgxgauge
