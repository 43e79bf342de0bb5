package serve

import (
	"container/list"
	"sync"

	"sgxgauge/internal/harness"
)

// DefaultCacheEntries bounds the cache when the configuration leaves
// the size zero. A Result is small (a few KiB unless a timeline was
// requested), so thousands of entries are cheap.
const DefaultCacheEntries = 4096

// Cache is the daemon's result cache: a size-bounded LRU under one
// lock, implementing harness.ResultCache so it plugs straight into a
// Runner. Its hit/miss/eviction counters feed the /metrics endpoint.
type Cache struct {
	mu  sync.Mutex
	max int
	// entries indexes the recency list by key. // guarded by mu
	entries map[harness.Key]*list.Element
	// order is the recency list, most recent at the front. // guarded by mu
	order *list.List
	// hits, misses and evictions are lifetime counts. // guarded by mu
	hits, misses, evictions uint64
}

type cacheEntry struct {
	key harness.Key
	res *harness.Result
}

// NewCache returns a cache bounded to maxEntries results (<= 0
// selects DefaultCacheEntries).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{max: maxEntries, entries: make(map[harness.Key]*list.Element), order: list.New()}
}

// Get returns the cached result for key, marking it most recently
// used.
func (c *Cache) Get(k harness.Key) (*harness.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Add stores res under key unless the key is already present, evicting
// the least recently used entries when the cache overflows. It
// returns the entry the cache now holds — the earlier one on a
// duplicate insert — so every reader of a key observes one canonical
// pointer.
func (c *Cache) Add(k harness.Key, res *harness.Result) *harness.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).res
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, res: res})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	return res
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the lifetime hit, miss and eviction counts.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
