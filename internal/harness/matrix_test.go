package harness

import (
	"testing"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// TestFullMatrix runs every workload in every supported mode at every
// input setting and checks (a) nothing errors, (b) the functional
// checksums agree across modes, and (c) overheads are ordered sanely.
func TestFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow; run without -short")
	}
	r := NewRunner(testEPC)
	r.Seed = 1
	for _, w := range suite.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			for _, size := range workloads.Sizes() {
				modes := []sgx.Mode{sgx.Vanilla, sgx.LibOS}
				if w.NativePort() {
					modes = []sgx.Mode{sgx.Vanilla, sgx.Native, sgx.LibOS}
				}
				results := map[sgx.Mode]*Result{}
				for _, mode := range modes {
					res, err := r.Run(Spec{Workload: w, Mode: mode, Size: size})
					if err != nil {
						t.Fatalf("%v/%v: %v", mode, size, err)
					}
					results[mode] = res
				}
				base := results[sgx.Vanilla]
				for _, mode := range modes[1:] {
					res := results[mode]
					if res.Output.Checksum != base.Output.Checksum {
						t.Errorf("%v/%v: checksum %#x != Vanilla %#x",
							mode, size, res.Output.Checksum, base.Output.Checksum)
					}
					if ovh := Overhead(res, base); ovh < 1.0 {
						t.Errorf("%v/%v: SGX mode faster than Vanilla (%.2fx)", mode, size, ovh)
					}
				}
			}
		})
	}
}
