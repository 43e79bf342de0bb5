// Package perf implements the performance-counter set used throughout
// the simulated machine.
//
// The counters mirror the hardware events SGXGauge reads with perf
// (dTLB misses, page-walk cycles, stall cycles, LLC misses, page
// faults) plus the SGX driver events the paper instruments directly
// (EPC evictions, EPC load-backs, ECALLs, OCALLs, AEX exits).
package perf

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Event identifies one performance counter.
type Event int

// The counter set. The first group corresponds to hardware PMU events,
// the second to SGX driver events, the third to bookkeeping values used
// by the harness.
const (
	DTLBMisses Event = iota
	WalkCycles
	StallCycles
	LLCMisses
	LLCHits
	PageFaults
	EPCEvictions
	EPCLoadBacks
	EPCAllocs
	ECalls
	OCalls
	AEXs
	TLBFlushes
	SwitchlessCalls
	Syscalls
	BytesRead
	BytesWritten
	Accesses
	// L1Hits and L1Misses are never counted: the machine has no
	// first-level cache. They keep their slots because Snapshot is a
	// fixed array whose every slot result digests hash.
	L1Hits
	L1Misses
	// InjectedAEXs counts forced asynchronous exits raised by the
	// chaos injector (a subset of AEXs).
	InjectedAEXs
	// IntegrityAborts counts enclave aborts caused by integrity
	// failures: tampered, replayed, or dropped sealed pages.
	IntegrityAborts
	// EPCResizes counts chaos-injected EPC capacity changes (the OS
	// ballooning the EPC mid-run).
	EPCResizes
	// TransitionFaults counts injected transient ECALL/OCALL
	// transition failures.
	TransitionFaults
	// BalloonFailures counts chaos-injected EPC resizes that failed
	// partway (the balloon could not evict enough pages, or the
	// integrity structures rejected an eviction). Failures during an
	// enclave access also abort the enclave; failures during
	// untrusted accesses are visible only through this counter.
	BalloonFailures
	// ExtentRuns counts extent executions issued through the
	// Thread.RunExtent family, regardless of whether the machine
	// charged them in bulk or replayed them per access.
	ExtentRuns
	// ExtentAccesses counts the elements those extents carried
	// (before page splitting); the per-chunk traffic still lands in
	// Accesses as usual, so ExtentAccesses/Accesses measures how much
	// of a run's traffic arrived pre-compiled.
	ExtentAccesses
	numEvents
)

// NumEvents is the number of distinct counters.
const NumEvents = int(numEvents)

var eventNames = [...]string{
	DTLBMisses:       "dtlb-misses",
	WalkCycles:       "walk-cycles",
	StallCycles:      "stall-cycles",
	LLCMisses:        "llc-misses",
	LLCHits:          "llc-hits",
	PageFaults:       "page-faults",
	EPCEvictions:     "epc-evictions",
	EPCLoadBacks:     "epc-loadbacks",
	EPCAllocs:        "epc-allocs",
	ECalls:           "ecalls",
	OCalls:           "ocalls",
	AEXs:             "aex-exits",
	TLBFlushes:       "tlb-flushes",
	SwitchlessCalls:  "switchless-calls",
	Syscalls:         "syscalls",
	BytesRead:        "bytes-read",
	BytesWritten:     "bytes-written",
	Accesses:         "accesses",
	L1Hits:           "l1-hits",
	L1Misses:         "l1-misses",
	InjectedAEXs:     "injected-aexs",
	IntegrityAborts:  "integrity-aborts",
	EPCResizes:       "epc-resizes",
	TransitionFaults: "transition-faults",
	BalloonFailures:  "balloon-failures",
	ExtentRuns:       "extent-runs",
	ExtentAccesses:   "extent-accesses",
}

// String returns the perf-style name of the event.
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Counters is a live counter bank. The zero value is ready to use.
//
// Direct Add/Inc calls are atomic and may come from any goroutine.
// Hot-path increments instead go through per-thread Shards (see
// NewShard): plain uint64 deltas owned by one simulated thread, summed
// back in by every observation (Get/Snapshot). Observations therefore
// remain exact at all times without the hot path paying one atomic
// RMW per event — but reading a counter bank with live shards is only
// safe from the goroutine driving its machine, matching the machine's
// own single-threaded discipline.
type Counters struct {
	v [numEvents]atomic.Uint64

	mu     sync.Mutex
	shards []*Shard // guarded by mu
}

// Add increments event e by n.
func (c *Counters) Add(e Event, n uint64) { c.v[e].Add(n) }

// Inc increments event e by one.
func (c *Counters) Inc(e Event) { c.v[e].Add(1) }

// Get returns the current value of event e, including unflushed shard
// deltas.
func (c *Counters) Get(e Event) uint64 {
	v := c.v[e].Load()
	c.mu.Lock()
	for _, s := range c.shards {
		v += s.d[e]
	}
	c.mu.Unlock()
	return v
}

// Reset zeroes every counter, including shard deltas.
func (c *Counters) Reset() {
	for i := range c.v {
		c.v[i].Store(0)
	}
	c.mu.Lock()
	for _, s := range c.shards {
		s.d = [numEvents]uint64{}
	}
	c.mu.Unlock()
}

// Snapshot captures the current value of every counter, including
// unflushed shard deltas.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	for i := range c.v {
		s[i] = c.v[i].Load()
	}
	c.mu.Lock()
	for _, sh := range c.shards {
		for i := range sh.d {
			s[i] += sh.d[i]
		}
	}
	c.mu.Unlock()
	return s
}

// Clone returns a new bank holding this bank's current values, with
// every shard's unflushed deltas folded in and no shards registered.
// It only reads c, so concurrent Clones of one idle bank are safe.
func (c *Counters) Clone() *Counters {
	s := c.Snapshot()
	n := &Counters{}
	for i, v := range s {
		n.v[i].Store(v)
	}
	return n
}

// Shard is a bank of plain (non-atomic) counter deltas owned by one
// simulated thread. Incrementing a shard is a single add with no
// memory-ordering traffic — the per-access fast path uses it instead
// of hammering the shared atomic bank. Deltas stay visible through
// the owning Counters' Get/Snapshot at every instant and are folded
// into the atomic bank at transition/sync points (Flush) and when the
// thread retires (Release).
type Shard struct {
	c *Counters
	d [numEvents]uint64
}

// NewShard registers and returns a fresh shard of this bank.
func (c *Counters) NewShard() *Shard {
	s := &Shard{c: c}
	c.mu.Lock()
	c.shards = append(c.shards, s)
	c.mu.Unlock()
	return s
}

// Add increments event e by n.
func (s *Shard) Add(e Event, n uint64) { s.d[e] += n }

// Inc increments event e by one.
func (s *Shard) Inc(e Event) { s.d[e]++ }

// Flush folds the shard's deltas into the shared atomic bank and
// zeroes them. Values observed through Get/Snapshot are unchanged.
func (s *Shard) Flush() {
	for i, v := range s.d {
		if v != 0 {
			s.c.v[i].Add(v)
			s.d[i] = 0
		}
	}
}

// Release flushes the shard and unregisters it from its bank; the
// shard must not be used afterwards.
func (s *Shard) Release() {
	s.Flush()
	s.c.mu.Lock()
	for i, sh := range s.c.shards {
		if sh == s {
			s.c.shards = append(s.c.shards[:i], s.c.shards[i+1:]...)
			break
		}
	}
	s.c.mu.Unlock()
}

// Snapshot is an immutable copy of the counter bank.
type Snapshot [numEvents]uint64

// Get returns the value of event e in the snapshot.
func (s Snapshot) Get(e Event) uint64 { return s[e] }

// Sub returns the element-wise difference s - prev. Values that would
// underflow are clamped to zero (counters are monotone, so underflow
// indicates a reset in between).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range s {
		if s[i] >= prev[i] {
			d[i] = s[i] - prev[i]
		}
	}
	return d
}

// Add returns the element-wise sum s + other.
func (s Snapshot) Add(other Snapshot) Snapshot {
	var d Snapshot
	for i := range s {
		d[i] = s[i] + other[i]
	}
	return d
}

// Ratio returns s[e] / base[e] as a float. When the base value is zero
// the result is defined as: 1 if s[e] is also zero (no change),
// otherwise the raw numerator (interpreted as "grew from nothing").
func (s Snapshot) Ratio(base Snapshot, e Event) float64 {
	b := base[e]
	n := s[e]
	if b == 0 {
		if n == 0 {
			return 1
		}
		return float64(n)
	}
	return float64(n) / float64(b)
}

// String renders the non-zero counters, sorted by event order.
func (s Snapshot) String() string {
	var b strings.Builder
	for i := 0; i < NumEvents; i++ {
		if s[i] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", Event(i), s[i])
	}
	return b.String()
}

// Events returns all events in declaration order.
func Events() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// ParseEvent resolves a perf-style event name; it reports false when
// the name is unknown.
func ParseEvent(name string) (Event, bool) {
	for i, n := range eventNames {
		if n == name {
			return Event(i), true
		}
	}
	return 0, false
}
