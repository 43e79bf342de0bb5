package perf

import (
	"strings"
	"sync"
	"testing"
)

func TestAddIncGet(t *testing.T) {
	var c Counters
	c.Inc(DTLBMisses)
	c.Add(DTLBMisses, 9)
	c.Add(WalkCycles, 120)
	if got := c.Get(DTLBMisses); got != 10 {
		t.Errorf("DTLBMisses = %d, want 10", got)
	}
	if got := c.Get(WalkCycles); got != 120 {
		t.Errorf("WalkCycles = %d, want 120", got)
	}
	if got := c.Get(LLCMisses); got != 0 {
		t.Errorf("LLCMisses = %d, want 0", got)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	for _, e := range Events() {
		c.Add(e, 7)
	}
	c.Reset()
	for _, e := range Events() {
		if c.Get(e) != 0 {
			t.Errorf("%v = %d after reset, want 0", e, c.Get(e))
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.Add(ECalls, 5)
	before := c.Snapshot()
	c.Add(ECalls, 3)
	c.Add(OCalls, 2)
	delta := c.Snapshot().Sub(before)
	if delta.Get(ECalls) != 3 {
		t.Errorf("ECalls delta = %d, want 3", delta.Get(ECalls))
	}
	if delta.Get(OCalls) != 2 {
		t.Errorf("OCalls delta = %d, want 2", delta.Get(OCalls))
	}
}

func TestSnapshotSubClampsUnderflow(t *testing.T) {
	var a, b Snapshot
	a[0] = 5
	b[0] = 10
	d := a.Sub(b)
	if d[0] != 0 {
		t.Errorf("underflowing Sub = %d, want 0", d[0])
	}
}

func TestSnapshotAdd(t *testing.T) {
	var a, b Snapshot
	a[int(AEXs)] = 3
	b[int(AEXs)] = 4
	if got := a.Add(b).Get(AEXs); got != 7 {
		t.Errorf("Add = %d, want 7", got)
	}
}

func TestRatioSemantics(t *testing.T) {
	var s, base Snapshot
	s[int(LLCMisses)] = 30
	base[int(LLCMisses)] = 10
	if got := s.Ratio(base, LLCMisses); got != 3 {
		t.Errorf("ratio = %v, want 3", got)
	}
	// Zero base, zero numerator: unchanged -> 1.
	if got := s.Ratio(base, PageFaults); got != 1 {
		t.Errorf("0/0 ratio = %v, want 1", got)
	}
	// Zero base, nonzero numerator: grew from nothing -> raw value.
	s[int(PageFaults)] = 42
	if got := s.Ratio(base, PageFaults); got != 42 {
		t.Errorf("42/0 ratio = %v, want 42", got)
	}
}

func TestEventNamesUniqueAndParseable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Events() {
		name := e.String()
		if name == "" || strings.HasPrefix(name, "event(") {
			t.Fatalf("event %d has no name", int(e))
		}
		if seen[name] {
			t.Fatalf("duplicate event name %q", name)
		}
		seen[name] = true
		parsed, ok := ParseEvent(name)
		if !ok || parsed != e {
			t.Errorf("ParseEvent(%q) = %v,%v; want %v,true", name, parsed, ok, e)
		}
	}
	if _, ok := ParseEvent("no-such-event"); ok {
		t.Error("ParseEvent accepted an unknown name")
	}
}

func TestUnknownEventString(t *testing.T) {
	if got := Event(999).String(); got != "event(999)" {
		t.Errorf("unknown event renders %q", got)
	}
}

func TestSnapshotString(t *testing.T) {
	var s Snapshot
	s[int(ECalls)] = 2
	s[int(AEXs)] = 1
	str := s.String()
	if !strings.Contains(str, "ecalls=2") || !strings.Contains(str, "aex-exits=1") {
		t.Errorf("String() = %q, missing fields", str)
	}
	if strings.Contains(str, "ocalls") {
		t.Errorf("String() = %q includes zero counters", str)
	}
}

func TestConcurrentAdds(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc(Accesses)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(Accesses); got != 8000 {
		t.Errorf("concurrent adds = %d, want 8000", got)
	}
}

func TestShardSumOnRead(t *testing.T) {
	var c Counters
	c.Add(ECalls, 10)
	s1 := c.NewShard()
	s2 := c.NewShard()
	s1.Add(ECalls, 5)
	s2.Inc(ECalls)
	s2.Add(OCalls, 3)

	// Unflushed deltas are visible through every read form.
	if got := c.Get(ECalls); got != 16 {
		t.Errorf("Get(ECalls) = %d, want 16 (10 atomic + 5 + 1 shard)", got)
	}
	snap := c.Snapshot()
	if snap.Get(ECalls) != 16 || snap.Get(OCalls) != 3 {
		t.Errorf("Snapshot = ECalls %d / OCalls %d, want 16 / 3",
			snap.Get(ECalls), snap.Get(OCalls))
	}

	// Flushing moves the deltas without changing observed values.
	s1.Flush()
	if got := c.Get(ECalls); got != 16 {
		t.Errorf("Get(ECalls) after Flush = %d, want 16", got)
	}
	s1.Add(ECalls, 2)
	if got := c.Get(ECalls); got != 18 {
		t.Errorf("Get(ECalls) after post-Flush Add = %d, want 18", got)
	}
	s1.Release()
	s2.Release()
	if got := c.Get(ECalls); got != 18 {
		t.Errorf("Get(ECalls) after Release = %d, want 18", got)
	}
	if got := c.Get(OCalls); got != 3 {
		t.Errorf("Get(OCalls) after Release = %d, want 3", got)
	}
}

func TestShardReleaseUnregisters(t *testing.T) {
	var c Counters
	s := c.NewShard()
	s.Inc(AEXs)
	s.Release()
	// A released shard no longer contributes to reads; its value
	// lives in the atomic bank now. A second registered shard must
	// be unaffected by the removal.
	s2 := c.NewShard()
	s2.Add(AEXs, 4)
	if got := c.Get(AEXs); got != 5 {
		t.Errorf("Get(AEXs) = %d, want 5", got)
	}
	s2.Release()
}

func TestResetClearsShardDeltas(t *testing.T) {
	var c Counters
	s := c.NewShard()
	defer s.Release()
	c.Add(PageFaults, 7)
	s.Add(PageFaults, 9)
	c.Reset()
	if got := c.Get(PageFaults); got != 0 {
		t.Errorf("Get after Reset = %d, want 0", got)
	}
	// The shard remains usable after a reset.
	s.Inc(PageFaults)
	if got := c.Get(PageFaults); got != 1 {
		t.Errorf("Get after post-Reset Inc = %d, want 1", got)
	}
}

func TestCountersCloneFoldsShards(t *testing.T) {
	var c Counters
	c.Add(Accesses, 5)
	sh := c.NewShard()
	sh.Add(Accesses, 3)
	sh.Inc(OCalls)
	n := c.Clone()
	if n.Snapshot() != c.Snapshot() {
		t.Fatalf("clone snapshot %v, want %v", n.Snapshot(), c.Snapshot())
	}
	// The clone is independent and owns no shards.
	sh.Inc(Accesses)
	if n.Get(Accesses) != 8 {
		t.Errorf("clone sees its source's later shard delta: Accesses = %d, want 8", n.Get(Accesses))
	}
	n.NewShard().Inc(OCalls)
	if c.Get(OCalls) != 1 || n.Get(OCalls) != 2 {
		t.Errorf("OCalls: source %d clone %d, want 1 and 2", c.Get(OCalls), n.Get(OCalls))
	}
}
