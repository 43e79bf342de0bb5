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

// Counters is a live counter bank: plain state owned by the goroutine
// that drives its machine, like the rest of the machine. The zero
// value is ready to use.
type Counters struct {
	v [numEvents]uint64
}

// Add increments event e by n.
func (c *Counters) Add(e Event, n uint64) { c.v[e] += n }

// Inc increments event e by one.
func (c *Counters) Inc(e Event) { c.v[e]++ }

// Get returns the current value of event e.
func (c *Counters) Get(e Event) uint64 { return c.v[e] }

// Snapshot captures the current value of every counter.
func (c *Counters) Snapshot() Snapshot { return Snapshot(c.v) }

// Clone returns a new bank holding this bank's current values. It
// only reads c, so concurrent Clones of one idle bank are safe.
func (c *Counters) Clone() *Counters {
	n := *c
	return &n
}

// Snapshot is an immutable copy of the counter bank.
type Snapshot [numEvents]uint64

// Get returns the value of event e in the snapshot.
func (s Snapshot) Get(e Event) uint64 { return s[e] }

// Sub returns the element-wise difference s - prev. Values that would
// underflow are clamped to zero (counters are monotone, so underflow
// means prev was taken after s).
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
