// Package cache implements the set-associative last-level cache model
// of the simulated machine.
//
// The model tracks tags only (data lives in the page frames); its job
// is to classify each memory access as an LLC hit or miss so the cycle
// model can charge DRAM latency — and, for EPC-resident lines, the
// additional MEE encryption/decryption latency (paper §2.2: "data is
// decrypted when brought in to the LLC upon a CPU request").
package cache

import "fmt"

// LLC is a set-associative cache of line tags with round-robin
// replacement within a set. It is not safe for concurrent use; the
// machine serializes simulated threads.
type LLC struct {
	sets    int
	ways    int
	setMask uint64
	setBits uint
	// tags holds, per slot, the line's set-relative tag (line with the
	// set-index bits shifted out) biased by 1; 0 means invalid. Within
	// a set that remainder identifies the line uniquely, and 32 bits
	// cover any simulated address below 2^(38+log2 sets) bytes — far
	// beyond the simulator's address space. Packing 16 ways into one
	// 64-byte cache line keeps the way scan to a single real memory
	// touch.
	tags []uint32 // sets*ways entries; 0 means invalid
	next []uint8  // per-set round-robin pointer
	// mru is the way of each set's most recent hit or install. It is
	// probed before the way scan; a pure lookup-order hint (like the
	// `last` shortcut) that never changes what Access returns or
	// which victim a miss picks.
	mru []uint8
	// last is the biased tag (line+1) of the most recent Access, or 0.
	// A repeat of the same line with no intervening Access is always a
	// hit — hits never move tags, and the previous Access left the
	// line installed — so it skips the way scan. Any bulk invalidation
	// clears it.
	last    uint64
	hits    uint64
	misses  uint64
}

// NewLLC builds a cache of totalBytes capacity with the given
// associativity and 64-byte lines. totalBytes is rounded down to a
// power-of-two set count; the resulting geometry is available through
// Sets and Ways. It panics if the geometry is degenerate.
func NewLLC(totalBytes int, ways int) *LLC {
	if ways <= 0 || ways > 255 {
		panic(fmt.Sprintf("cache: invalid ways %d", ways))
	}
	lines := totalBytes / 64
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	return &LLC{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		setBits: setBits,
		tags:    make([]uint32, sets*ways),
		next:    make([]uint8, sets),
		mru:     make([]uint8, sets),
	}
}

// Sets returns the number of sets.
func (c *LLC) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *LLC) Ways() int { return c.ways }

// SizeBytes returns the modeled capacity in bytes.
func (c *LLC) SizeBytes() int { return c.sets * c.ways * 64 }

// Access looks up the cache line containing lineAddr (a line number,
// i.e. byte address / 64) and returns true on a hit. On a miss the
// line is installed, evicting the round-robin victim of its set.
func (c *LLC) Access(line uint64) bool {
	// Tag 0 marks an invalid slot, so bias stored tags by 1.
	tag := line + 1
	if tag == c.last {
		c.hits++
		return true
	}
	c.last = tag
	set := int(line & c.setMask)
	base := set * c.ways
	st := uint32(line>>c.setBits) + 1
	w := c.tags[base : base+c.ways]
	if w[c.mru[set]] == st {
		c.hits++
		return true
	}
	for i, t := range w {
		if t == st {
			c.hits++
			c.mru[set] = uint8(i)
			return true
		}
	}
	c.misses++
	v := int(c.next[set])
	w[v] = st
	nv := v + 1
	if nv == c.ways {
		nv = 0
	}
	c.next[set] = uint8(nv)
	c.mru[set] = uint8(v)
	return false
}

// NoteStreakHits records n hits that the caller proved without a
// lookup: immediate repeats of the most recently accessed line. Such
// repeats always take the `last` shortcut in Access — a hit that
// reads no tags and moves no state — so batching them into one
// counter add leaves the cache's state and statistics exactly as n
// Access calls would have.
func (c *LLC) NoteStreakHits(n uint64) { c.hits += n }

// AccessRun performs Access on n consecutive lines starting at line
// and returns how many hit and how many missed. It is the bulk
// equivalent of calling Access in a loop and leaves identical cache
// state and statistics; the machine's fast path uses it to charge a
// whole intra-page run of lines in one call.
//
// The body is Access unrolled across the run with the bookkeeping
// kept in locals: only the first line can take the `last` shortcut
// (consecutive lines never repeat), and the final `last` is the run's
// last line — exactly what n sequential Access calls leave behind.
func (c *LLC) AccessRun(line uint64, n uint64) (hits, misses uint64) {
	if n == 0 {
		return 0, 0
	}
	i := uint64(0)
	if line+1 == c.last {
		hits++
		i++
	}
	for ; i < n; i++ {
		ln := line + i
		set := int(ln & c.setMask)
		base := set * c.ways
		st := uint32(ln>>c.setBits) + 1
		w := c.tags[base : base+c.ways]
		if w[c.mru[set]] == st {
			hits++
			continue
		}
		found := false
		for k, t := range w {
			if t == st {
				c.mru[set] = uint8(k)
				hits++
				found = true
				break
			}
		}
		if found {
			continue
		}
		misses++
		v := int(c.next[set])
		w[v] = st
		nv := v + 1
		if nv == c.ways {
			nv = 0
		}
		c.next[set] = uint8(nv)
		c.mru[set] = uint8(v)
	}
	c.last = line + n // biased tag of the run's final line
	c.hits += hits
	c.misses += misses
	return hits, misses
}

// InvalidateRange removes n consecutive lines starting at line from
// the cache (used when an EPC page is encrypted out to DRAM).
func (c *LLC) InvalidateRange(line uint64, n uint64) {
	c.last = 0
	for i := uint64(0); i < n; i++ {
		ln := line + i
		st := uint32(ln>>c.setBits) + 1
		base := int(ln&c.setMask) * c.ways
		w := c.tags[base : base+c.ways]
		for k, t := range w {
			if t == st {
				w[k] = 0
				break
			}
		}
	}
}

// EvictEveryNth invalidates every n-th line slot, starting at phase
// mod n. It models the cache pollution of one enclave transition: the
// kernel/microcode path displaces roughly 1/n of the cache, spread
// across sets. The rotating phase keeps repeated transitions from
// always sparing the same slots.
func (c *LLC) EvictEveryNth(n uint64, phase uint64) {
	if n == 0 {
		return
	}
	c.last = 0
	for i := int(phase % n); i < len(c.tags); i += int(n) {
		c.tags[i] = 0
	}
}

// Flush invalidates the entire cache.
func (c *LLC) Flush() {
	c.last = 0
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.next {
		c.next[i] = 0
	}
}

// Stats returns cumulative hits and misses since construction.
func (c *LLC) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Clone returns an independent copy of the cache: same tags,
// replacement and MRU state, last-line shortcut and statistics.
func (c *LLC) Clone() *LLC {
	n := *c
	n.tags = append([]uint32(nil), c.tags...)
	n.next = append([]uint8(nil), c.next...)
	n.mru = append([]uint8(nil), c.mru...)
	return &n
}
