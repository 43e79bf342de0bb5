// Package mem provides the physical-memory primitives of the simulated
// machine: fixed-size page frames and the untrusted backing store
// that holds pages evicted from the EPC.
package mem

import (
	"fmt"
	"sync"
)

// PageSize is the size of one page in bytes (4 KiB, as on x86 and as
// assumed throughout the paper: a 4 GB enclave is "1 M * 4 KB").
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// LineSize is the size of one cache line in bytes.
const LineSize = 64

// PageBase returns the page-aligned base of addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageNumber returns the virtual page number of addr.
func PageNumber(addr uint64) uint64 { return addr >> PageShift }

// LineNumber returns the cache-line number of addr.
func LineNumber(addr uint64) uint64 { return addr / LineSize }

// Frame is one physical page frame.
type Frame struct {
	Data [PageSize]byte
}

// PageID identifies an enclave page: the owning enclave and the
// virtual page number within it. Enclave 0 is reserved for untrusted
// (non-enclave) memory.
type PageID struct {
	Enclave uint32
	VPN     uint64
}

func (id PageID) String() string {
	return fmt.Sprintf("enclave %d vpn %#x", id.Enclave, id.VPN)
}

// SealedPage is an encrypted page together with the metadata the MEE
// needs to verify it on load-back (paper §2.2: pages are evicted "in an
// encrypted form" with a MAC, and integrity-checked when brought back).
// The MAC is the MEE's 128-bit AES-GCM tag.
type SealedPage struct {
	ID      PageID
	Version uint64
	// Ciphertext is the encrypted page. Nil marks a compact page: the
	// sealed plaintext was all zero, so the ciphertext is exactly the
	// page's GCM key stream, which the MEE regenerates from the nonce
	// on load-back (see mee.Engine.Materialize). The MAC is kept and
	// checked either way.
	Ciphertext *[PageSize]byte
	MAC        [16]byte

	// frozen marks a page shared copy-on-write between a backing store
	// and its clones (see BackingStore.Clone). A frozen page is never
	// recycled, so its bytes never change again.
	frozen bool
}

// Frozen reports whether the page is shared copy-on-write between
// backing stores, so its bytes must never be written.
func (p *SealedPage) Frozen() bool { return p.frozen }

// Copy returns a deep copy of the page with storage of its own, so a
// later in-place reseal of p (through BackingStore.Reserve) cannot
// change the copy. The copy is not frozen.
func (p *SealedPage) Copy() *SealedPage {
	cp := *p
	cp.frozen = false
	if p.Ciphertext != nil {
		ct := *p.Ciphertext
		cp.Ciphertext = &ct
	}
	return &cp
}

// BackingStore is the untrusted main memory region that receives
// evicted (sealed) EPC pages. It is safe for concurrent use.
//
// A *SealedPage obtained from Get stays valid until that entry is
// deleted or replaced; afterwards its storage may be recycled through
// Reserve and overwritten by a later seal, ciphertext included.
// Callers that need a sealed image beyond that point (e.g. to replay
// it later) must take a deep copy (SealedPage.Copy): a struct copy
// still shares the ciphertext storage.
type BackingStore struct {
	mu    sync.Mutex
	pages map[PageID]*SealedPage // guarded by mu
	// free recycles the storage of dead entries: evicting a page that
	// is not all zero allocates a SealedPage with 4 KiB of ciphertext,
	// and an EPC-thrashing run retires one per load-back, so recycling
	// removes the dominant allocation of the whole simulation. Bounded
	// so enclave teardown cannot pin an arbitrary amount of dead
	// memory.
	free []*SealedPage // guarded by mu
}

// maxFreeSealed bounds the recycling list: enough to feed several
// eviction storms (the EPC seals 16 pages per batch) without
// retaining more than ~¼ MiB of dead pages (64 × 4 KiB of ciphertext
// at most; a compact entry holds none).
const maxFreeSealed = 64

// NewBackingStore returns an empty backing store.
func NewBackingStore() *BackingStore {
	return &BackingStore{pages: make(map[PageID]*SealedPage)}
}

// recycle adds a dead entry to the free list; caller holds mu. Frozen
// pages are still referenced by another store and are left alone.
func (b *BackingStore) recycle(p *SealedPage) {
	if !p.frozen && len(b.free) < maxFreeSealed {
		b.free = append(b.free, p)
	}
}

// Reserve returns a SealedPage whose storage may be recycled from a
// dead entry, or nil when none is available (the caller allocates).
// Every field must be overwritten before the page is stored; a
// non-nil Ciphertext is storage the new seal may write into.
func (b *BackingStore) Reserve() *SealedPage {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.free); n > 0 {
		p := b.free[n-1]
		b.free = b.free[:n-1]
		return p
	}
	return nil
}

// Put stores the sealed page, replacing any previous version.
func (b *BackingStore) Put(p *SealedPage) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old := b.pages[p.ID]; old != nil && old != p {
		b.recycle(old)
	}
	b.pages[p.ID] = p
}

// Get returns the sealed page for id, or nil when the page was never
// evicted.
func (b *BackingStore) Get(id PageID) *SealedPage {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pages[id]
}

// Delete removes the sealed page for id, if present.
func (b *BackingStore) Delete(id PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old := b.pages[id]; old != nil {
		b.recycle(old)
		delete(b.pages, id)
	}
}

// Len returns the number of sealed pages currently stored.
func (b *BackingStore) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pages)
}

// Clone returns a store holding the same sealed pages, shared
// copy-on-write: every page b holds now is frozen, so neither b nor
// any clone recycles it, and replacing or deleting it in one store
// only drops that store's reference. The clone starts with an empty
// recycling list. Clone takes only b's lock: concurrent Clones of one
// store are safe as long as nothing else mutates b meanwhile.
func (b *BackingStore) Clone() *BackingStore {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := &BackingStore{pages: make(map[PageID]*SealedPage, len(b.pages))}
	for id, p := range b.pages {
		if !p.frozen {
			// Written under b's lock only, and only before the first
			// clone shares the page, so later readers are ordered
			// after it.
			p.frozen = true
		}
		c.pages[id] = p
	}
	return c
}

// DropEnclave removes every sealed page belonging to the enclave.
func (b *BackingStore) DropEnclave(enclave uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, p := range b.pages {
		if id.Enclave == enclave {
			b.recycle(p)
			delete(b.pages, id)
		}
	}
}
