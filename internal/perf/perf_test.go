package perf

import (
	"strings"
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

func TestCountersCloneIndependent(t *testing.T) {
	var c Counters
	c.Add(Accesses, 8)
	c.Inc(OCalls)
	n := c.Clone()
	if n.Snapshot() != c.Snapshot() {
		t.Fatalf("clone snapshot %v, want %v", n.Snapshot(), c.Snapshot())
	}
	// The clone sees none of its source's later counts...
	c.Inc(Accesses)
	if n.Get(Accesses) != 8 {
		t.Errorf("clone sees its source's later count: Accesses = %d, want 8", n.Get(Accesses))
	}
	// ...and the source sees none of the clone's.
	n.Inc(OCalls)
	if c.Get(OCalls) != 1 || n.Get(OCalls) != 2 {
		t.Errorf("OCalls: source %d clone %d, want 1 and 2", c.Get(OCalls), n.Get(OCalls))
	}
}
