package sgx

import (
	"testing"

	"sgxgauge/internal/mem"
)

// thrashEnclave builds an enclave with a working set twice the EPC
// and sweeps it, forcing evict/load-back traffic.
func thrashEnclave(t *testing.T, cfg Config) uint64 {
	t.Helper()
	m := NewMachine(cfg)
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 3*cfg.EPCPages); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	pages := 2 * cfg.EPCPages
	heap := env.MustAlloc(uint64(pages)*mem.PageSize, mem.PageSize)
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < pages; p++ {
			addr := heap + uint64(p)*mem.PageSize
			if pass == 0 {
				tr.WriteU64(addr, uint64(p))
			} else if got := tr.ReadU64(addr); got != uint64(p) {
				t.Fatalf("pass %d page %d corrupted: %d", pass, p, got)
			}
		}
	}
	return tr.Clock.Cycles()
}

func TestIntegrityTreePreservesCorrectness(t *testing.T) {
	// Identical data survives thrash with the tree enabled.
	thrashEnclave(t, Config{EPCPages: 32, IntegrityTree: true})
}

func TestIntegrityTreeCostsCycles(t *testing.T) {
	flat := thrashEnclave(t, Config{EPCPages: 32})
	tree := thrashEnclave(t, Config{EPCPages: 32, IntegrityTree: true})
	if tree <= flat {
		t.Errorf("integrity tree added no paging cost: %d vs %d", tree, flat)
	}
	// The overhead should be a meaningful but bounded fraction —
	// VAULT's motivation is that tree walks hurt paging, not that
	// they dominate everything.
	ratio := float64(tree) / float64(flat)
	if ratio > 1.6 {
		t.Errorf("integrity-tree overhead = %.2fx, implausibly high", ratio)
	}
}

func TestIntegrityTreeDetectsCrossPageSplice(t *testing.T) {
	// Attack the tree itself: corrupt an internal node and verify
	// the next load-back panics.
	m := NewMachine(Config{EPCPages: 32, IntegrityTree: true})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 128); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	heap := env.MustAlloc(64*mem.PageSize, mem.PageSize)
	for p := uint64(0); p < 64; p++ {
		tr.WriteU64(heap+p*mem.PageSize, p)
	}
	m.EPC.IntegrityTree().CorruptNode(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("load-back after tree corruption did not panic")
		}
	}()
	// Sweep until some evicted page under the corrupted subtree is
	// touched.
	for p := uint64(0); p < 64; p++ {
		tr.ReadU64(heap + p*mem.PageSize)
	}
}
