package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := NewLLC(64*1024, 16)
	if c.Ways() != 16 {
		t.Errorf("ways = %d", c.Ways())
	}
	if c.SizeBytes() > 64*1024 || c.SizeBytes() < 32*1024 {
		t.Errorf("size = %d, want close to 64K", c.SizeBytes())
	}
	if s := c.Sets(); s&(s-1) != 0 {
		t.Errorf("sets = %d is not a power of two", s)
	}
}

func TestInvalidWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLLC(_, 0) did not panic")
		}
	}()
	NewLLC(1024, 0)
}

func TestMissThenHit(t *testing.T) {
	c := NewLLC(64*1024, 8)
	if c.Access(12345) {
		t.Fatal("first access hit")
	}
	if !c.Access(12345) {
		t.Fatal("second access missed")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestSetConflictEviction(t *testing.T) {
	c := NewLLC(8*64, 2) // 4 sets x 2 ways
	sets := uint64(c.Sets())
	// Fill one set beyond capacity: lines 0, sets, 2*sets... map to
	// set 0.
	c.Access(0)
	c.Access(sets)
	c.Access(2 * sets) // evicts line 0 (round robin)
	if c.Access(0) {
		t.Error("evicted line still hit")
	}
}

func TestFlush(t *testing.T) {
	c := NewLLC(64*1024, 8)
	for i := uint64(0); i < 100; i++ {
		c.Access(i)
	}
	c.Flush()
	if c.Access(5) {
		t.Error("hit after flush")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := NewLLC(64*1024, 8)
	for i := uint64(0); i < 64; i++ {
		c.Access(1000 + i)
	}
	c.InvalidateRange(1000, 64)
	for i := uint64(0); i < 64; i++ {
		if c.Access(1000 + i) {
			t.Fatalf("line %d survived InvalidateRange", 1000+i)
		}
	}
}

func TestInvalidateRangeLeavesOthers(t *testing.T) {
	c := NewLLC(64*1024, 8)
	c.Access(1)
	c.Access(100000)
	c.InvalidateRange(100000, 1)
	if !c.Access(1) {
		t.Error("unrelated line was invalidated")
	}
}

func TestEvictEveryNth(t *testing.T) {
	c := NewLLC(64*1024, 8)
	for i := uint64(0); i < 512; i++ {
		c.Access(i)
	}
	before := hitCount(c, 512)
	c.EvictEveryNth(8, 0)
	after := hitCount(c, 512)
	if after >= before {
		t.Errorf("pollution did not evict anything: %d -> %d", before, after)
	}
	// Roughly 1/8 of lines should be gone (hitCount re-installs, so
	// just check a meaningful drop bounded by ~1/4).
	if before-after > 512/4 {
		t.Errorf("pollution too aggressive: lost %d of %d", before-after, before)
	}
	c.EvictEveryNth(0, 0) // n=0 is a no-op, must not panic or hang
}

func hitCount(c *LLC, n uint64) int {
	hits := 0
	for i := uint64(0); i < n; i++ {
		if c.Access(i) {
			hits++
		}
	}
	return hits
}

// TestAccessRunMatchesAccessLoop drives two identical caches with a
// random interleaving of runs — one through AccessRun, the other
// through the equivalent Access loop — and demands identical hit and
// miss counts per run plus identical full state (tags, round-robin
// pointers, `last` shortcut) throughout. AccessRun's contract is
// exactly "Access in a loop"; this pins it against the bulk path's
// unrolled internals.
func TestAccessRunMatchesAccessLoop(t *testing.T) {
	a := NewLLC(16*1024, 4) // small: plenty of conflict evictions
	b := NewLLC(16*1024, 4)
	rng := uint64(0x1234abcd)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for step := 0; step < 20000; step++ {
		line := next(4 * uint64(a.Sets()))
		n := next(130) // runs up to two pages of lines, incl. n == 0
		gh, gm := a.AccessRun(line, n)
		var wh, wm uint64
		for i := uint64(0); i < n; i++ {
			if b.Access(line + i) {
				wh++
			} else {
				wm++
			}
		}
		if gh != wh || gm != wm {
			t.Fatalf("step %d: AccessRun(%d, %d) = %d hits %d misses, Access loop %d/%d",
				step, line, n, gh, gm, wh, wm)
		}
		if a.last != b.last {
			t.Fatalf("step %d: last = %d want %d", step, a.last, b.last)
		}
		ah, am := a.Stats()
		bh, bm := b.Stats()
		if ah != bh || am != bm {
			t.Fatalf("step %d: stats %d/%d want %d/%d", step, ah, am, bh, bm)
		}
		for i := range a.tags {
			if a.tags[i] != b.tags[i] {
				t.Fatalf("step %d: tags[%d] = %d want %d", step, i, a.tags[i], b.tags[i])
			}
		}
		for i := range a.next {
			if a.next[i] != b.next[i] {
				t.Fatalf("step %d: next[%d] = %d want %d", step, i, a.next[i], b.next[i])
			}
		}
	}
}

func TestRepeatedAccessAlwaysHitsProperty(t *testing.T) {
	c := NewLLC(256*1024, 16)
	f := func(line uint64) bool {
		c.Access(line)
		return c.Access(line) // immediate re-access must hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetWithinCapacityHits(t *testing.T) {
	c := NewLLC(64*1024, 8)
	lines := uint64(c.Sets()) // one line per set: no conflicts
	for pass := 0; pass < 3; pass++ {
		miss := 0
		for i := uint64(0); i < lines; i++ {
			if !c.Access(i) {
				miss++
			}
		}
		if pass > 0 && miss != 0 {
			t.Fatalf("pass %d: %d misses for conflict-free working set", pass, miss)
		}
	}
}

// resident reports whether line is present, by scanning its set
// directly (no side effects on hints or statistics).
func (c *LLC) resident(line uint64) bool {
	base := int(line&c.setMask) * c.ways
	st := uint32(line>>c.setBits) + 1
	for _, t := range c.tags[base : base+c.ways] {
		if t == st {
			return true
		}
	}
	return false
}

// TestEpochContractProperty drives a small cache with a random mix of
// Access, AccessRun, InvalidateRange, EvictEveryNth, Flush and Clone
// and checks the residency-epoch contract callers rely on to skip
// probes:
//   - a line seen resident at epoch e is still resident, and Access on
//     it returns true, while Epoch still reads e;
//   - every operation that changes any tag bumps the epoch;
//   - a hit leaves the epoch alone (else the contract is useless);
//   - Clone carries the epoch with the tags.
func TestEpochContractProperty(t *testing.T) {
	c := NewLLC(16*1024, 4) // 64 sets x 4 ways: frequent conflicts
	sets := uint64(c.Sets())
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	universe := 6 * sets
	// seen[line] is 1 + the epoch line was last seen resident at, or
	// 0. Runs may extend up to sets lines past the universe.
	seen := make([]uint64, universe+sets)
	see := func(line uint64) { seen[line] = c.Epoch() + 1 }
	proven := func(line uint64) bool { return seen[line] == c.Epoch()+1 }
	for step := 0; step < 20000; step++ {
		before := append([]uint32(nil), c.tags...)
		e0 := c.Epoch()
		var op string
		switch r := next(100); {
		case r < 45:
			op = "Access"
			line := next(universe)
			hit := c.Access(line)
			if hit && c.Epoch() != e0 {
				t.Fatalf("step %d: hit on %d bumped the epoch", step, line)
			}
			see(line)
		case r < 65:
			// Re-access the first line proven resident by the epoch
			// at or after a random start, if any.
			op = "Access(proven)"
			for i, start := uint64(0), next(universe); i < universe; i++ {
				if line := (start + i) % universe; proven(line) {
					if !c.Access(line) {
						t.Fatalf("step %d: line %d seen resident at epoch %d missed at the same epoch", step, line, e0)
					}
					break
				}
			}
		case r < 80:
			op = "AccessRun"
			// At most one line per set, so every line of the run is
			// resident afterwards.
			line, n := next(universe), next(sets+1)
			_, misses := c.AccessRun(line, n)
			if misses == 0 && c.Epoch() != e0 {
				t.Fatalf("step %d: all-hit AccessRun bumped the epoch", step)
			}
			for i := uint64(0); i < n; i++ {
				see(line + i)
			}
		case r < 90:
			op = "InvalidateRange"
			c.InvalidateRange(next(universe), next(9))
		case r < 96:
			op = "EvictEveryNth"
			c.EvictEveryNth(next(8)+1, next(16))
		case r < 98:
			op = "Flush"
			c.Flush()
		default:
			op = "Clone"
			n := c.Clone()
			if n.Epoch() != c.Epoch() {
				t.Fatalf("step %d: clone epoch %d, want %d", step, n.Epoch(), c.Epoch())
			}
			c = n
		}
		changed := false
		for i := range before {
			if before[i] != c.tags[i] {
				changed = true
				break
			}
		}
		if changed && c.Epoch() == e0 {
			t.Fatalf("step %d: %s changed tags without bumping the epoch", step, op)
		}
		for line := range seen {
			if proven(uint64(line)) && !c.resident(uint64(line)) {
				t.Fatalf("step %d: after %s, line %d seen resident at epoch %d is gone at the same epoch", step, op, line, c.Epoch())
			}
		}
	}
}
