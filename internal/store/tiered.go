package store

import "sgxgauge/internal/harness"

// Tiered layers two harness.ResultCaches: a fast bounded L1 (the
// daemon's in-memory LRU) over a complete L2 (this package's
// persistent Store). Gets probe L1 first and promote L2 hits into L1;
// Adds write through to both. A Runner wired to a Tiered cache
// therefore survives restarts: the L1 comes back empty, but every
// previously computed spec is one L2 read — not one simulation —
// away.
type Tiered struct {
	L1, L2 harness.ResultCache
}

// NewTiered returns the layered cache.
func NewTiered(l1, l2 harness.ResultCache) *Tiered {
	return &Tiered{L1: l1, L2: l2}
}

// Get probes L1 then L2, promoting an L2 hit into L1 so repeated
// reads of a warm key stop paying the disk read.
func (t *Tiered) Get(k harness.Key) (*harness.Result, bool) {
	if res, ok := t.L1.Get(k); ok {
		return res, true
	}
	res, ok := t.L2.Get(k)
	if !ok {
		return nil, false
	}
	// L1's put-if-absent keeps one canonical pointer per key even
	// when two goroutines promote the same entry concurrently.
	return t.L1.Add(k, res), true
}

// Add writes through both layers. L1 resolves the canonical pointer
// (put-if-absent); L2 persists it.
func (t *Tiered) Add(k harness.Key, res *harness.Result) *harness.Result {
	res = t.L1.Add(k, res)
	t.L2.Add(k, res)
	return res
}

// Len reports the size of the larger layer. Every add writes through
// to L2 while L1 evicts, so with a persistent L2 this is the number
// of distinct results known to the pair.
func (t *Tiered) Len() int {
	l1, l2 := t.L1.Len(), t.L2.Len()
	if l1 > l2 {
		return l1
	}
	return l2
}
