package serve

import (
	"testing"

	"sgxgauge/internal/harness"
)

// TestCacheBoundIsExact: the cache holds exactly its configured number
// of results, evicts the least recently used one first, counts hits,
// misses and evictions, and keeps the first pointer filed under a key.
func TestCacheBoundIsExact(t *testing.T) {
	c := NewCache(3)
	key := func(i byte) harness.Key { return harness.Key{i} }
	res := make([]*harness.Result, 5)
	for i := range res {
		res[i] = &harness.Result{Name: "Empty"}
	}
	for i := byte(0); i < 3; i++ {
		c.Add(key(i), res[i])
	}
	if got := c.Add(key(0), res[4]); got != res[0] {
		t.Fatal("duplicate Add replaced the cached pointer")
	}
	// Key 0 is now the most recent; key 1 is the least.
	c.Add(key(3), res[3])
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want exactly 3", c.Len())
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("least recently used entry survived an overflow")
	}
	for _, i := range []byte{0, 2, 3} {
		if got, ok := c.Get(key(i)); !ok || got != res[i] {
			t.Fatalf("key %d: got %p, %v; want %p", i, got, ok, res[i])
		}
	}
	if hits, misses, evictions := c.Stats(); hits != 3 || misses != 1 || evictions != 1 {
		t.Fatalf("Stats = %d hits, %d misses, %d evictions; want 3, 1, 1", hits, misses, evictions)
	}
	if NewCache(0).max != DefaultCacheEntries {
		t.Fatalf("NewCache(0) bound = %d, want DefaultCacheEntries", NewCache(0).max)
	}
}
