// Package corpus is the lockdiscipline analyzer's golden corpus.
package corpus

import "sync"

// Bank is a registry read by every observation and mutated on
// registration — the unguarded-append race this analyzer exists to
// stop.
type Bank struct {
	mu     sync.Mutex
	shards []int // guarded by mu
	open   bool
}

// registerBug reproduces the motivating race: appending to the
// registry without holding the bank's mutex.
func (b *Bank) registerBug(s int) {
	b.shards = append(b.shards, s) // want "guarded by"
}

// registerOK brackets the access properly.
func (b *Bank) registerOK(s int) {
	b.mu.Lock()
	b.shards = append(b.shards, s)
	b.mu.Unlock()
}

// sumLocked folds the shards; caller holds mu.
func (b *Bank) sumLocked() int {
	n := 0
	for _, s := range b.shards {
		n += s
	}
	return n
}

// sum locks around the annotated helper.
func (b *Bank) sum() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sumLocked()
}

// unguardedOK: fields without an annotation are not checked.
func (b *Bank) unguardedOK() bool { return b.open }

// RWBank exercises the RLock form.
type RWBank struct {
	mu   sync.RWMutex
	data map[string]int // guarded by mu
}

func (b *RWBank) readOK(k string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.data[k]
}

func (b *RWBank) writeBug(k string, v int) {
	b.data[k] = v // want "guarded by"
}

// nestedOK: the guard may be reached through a longer selector path;
// matching is by mutex name.
type wrapper struct{ b *Bank }

func (w *wrapper) drain() []int {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	out := append([]int(nil), w.b.shards...)
	w.b.shards = nil
	return out
}

// suppressedOK shows an acknowledged exception with its reason.
func (b *Bank) suppressedOK() int {
	//sgxlint:ignore lockdiscipline constructor-time read before the bank is shared; no concurrent registration can exist yet
	return len(b.shards)
}
