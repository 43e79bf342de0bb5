// Package corpus is the atomicfield analyzer's golden corpus: a field
// touched by sync/atomic anywhere must be touched atomically
// everywhere.
package corpus

import "sync/atomic"

// counters is a set of totals bumped on a hot path and read by a
// reporter.
type counters struct {
	hits  uint64
	drops uint64
	size  uint64
}

// observe charges hits atomically on the hot path.
func observe(c *counters) {
	atomic.AddUint64(&c.hits, 1)
}

// snapshotBug reproduces the motivating race: the reporter reads the
// hot counter with a plain load.
func snapshotBug(c *counters) uint64 {
	return c.hits // want "accessed plainly here"
}

// resetBug writes the hot counter plainly.
func resetBug(c *counters) {
	c.hits = 0 // want "accessed plainly here"
}

// drop and drained keep drops consistently atomic: no findings.
func drop(c *counters) {
	atomic.AddUint64(&c.drops, 1)
}

func drained(c *counters) uint64 {
	return atomic.LoadUint64(&c.drops)
}

// grow keeps size consistently plain: also no findings — the rule is
// consistency, not atomics everywhere.
func grow(c *counters) {
	c.size++
}

// construction is exempt by shape: composite-literal keys are not
// selector accesses, and the value hasn't escaped yet.
func fresh() *counters {
	return &counters{hits: 0, drops: 0}
}

// suppressedOK shows an acknowledged exception with its reason.
func suppressedOK(c *counters) uint64 {
	//sgxlint:ignore atomicfield read runs after the worker pool's Wait; no concurrent writers remain
	return c.hits
}
