// Package mem provides the physical-memory primitives of the simulated
// machine: fixed-size page frames and the untrusted backing store
// that holds pages evicted from the EPC.
package mem

import (
	"fmt"
	"maps"
	"slices"
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

// maxPooledPages bounds the page recycler: it keeps at most this many
// dead 4 KiB buffers (2 MiB) for reuse. Buffers it holds are live heap,
// so they raise the collector's heap goal and peak RSS. Generating the
// whole report at EPC 256 allocated 32% less with this bound, for 5%
// more peak RSS; 4096 buffers saved 37% for 22% more. At EPC 1024 and
// 2048 a larger bound allocates less but saves no wall time, and the
// recycler outlives every run, so the bound does not follow the EPC
// (DESIGN.md §7 has both sweeps).
const maxPooledPages = 512

// pages is the process-wide recycler of 4 KiB page buffers: every
// simulated page allocation (EPC slot frames, untrusted first
// touches, sealed-page ciphertext) takes from it through NewFrame,
// and FreeFrame gives dead buffers back, chiefly when a run releases
// its machine (sgx.Machine.Release). Which buffer is reused never
// reaches simulated state, because NewFrame hands every buffer out
// zeroed.
var pages struct {
	mu   sync.Mutex
	free []*Frame // guarded by mu
}

// NewFrame returns a zeroed page frame, recycled from a dead one when
// the recycler holds any.
func NewFrame() *Frame {
	pages.mu.Lock()
	n := len(pages.free)
	if n == 0 {
		pages.mu.Unlock()
		return new(Frame)
	}
	f := pages.free[n-1]
	pages.free[n-1] = nil
	pages.free = pages.free[:n-1]
	pages.mu.Unlock()
	f.Data = [PageSize]byte{}
	return f
}

// FreeFrame gives f back to the recycler, which keeps it for a later
// NewFrame unless it is full. The caller must hold the only reference
// to f: once freed, its bytes belong to whoever takes it next.
func FreeFrame(f *Frame) {
	pages.mu.Lock()
	if len(pages.free) < maxPooledPages {
		pages.free = append(pages.free, f)
	}
	pages.mu.Unlock()
}

// PooledPages returns the number of dead page buffers the recycler
// holds now, at most maxPooledPages.
func PooledPages() int {
	pages.mu.Lock()
	defer pages.mu.Unlock()
	return len(pages.free)
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
	// Ciphertext is the encrypted page, in a buffer from the page
	// recycler (NewFrame). Nil marks a compact page: the sealed
	// plaintext was all zero, so the ciphertext is exactly the page's
	// GCM key stream, which the MEE regenerates from the nonce on
	// load-back (see mee.Engine.Materialize). The MAC is kept and
	// checked either way.
	Ciphertext *Frame
	MAC        [16]byte

	// frozen marks a page shared copy-on-write between a backing store
	// and its clones (see BackingStore.Freeze and Clone). A frozen
	// page is never resealed and its ciphertext never recycled, so its
	// bytes never change again.
	frozen bool
}

// Frozen reports whether the page is shared copy-on-write between
// backing stores, so its bytes must never be written.
func (p *SealedPage) Frozen() bool { return p.frozen }

// Copy returns a deep copy of the page with storage of its own, so
// resealing p in place once it leaves its store (see
// BackingStore.Take) cannot change the copy. The copy is not frozen.
func (p *SealedPage) Copy() *SealedPage {
	cp := *p
	cp.frozen = false
	if p.Ciphertext != nil {
		cp.Ciphertext = NewFrame()
		*cp.Ciphertext = *p.Ciphertext
	}
	return &cp
}

// BackingStore is the untrusted main memory region that receives
// evicted (sealed) EPC pages. It is not safe for concurrent use: the
// machine that owns it drives it from one goroutine.
//
// A *SealedPage obtained from Get stays valid until that entry is
// deleted or replaced. Afterwards the store keeps the record, with its
// ciphertext buffer, on a dead list: Take hands it out again, and the
// next seal overwrites both the record and its bytes. Callers that need
// a sealed image beyond that point (e.g. to replay it later) must take
// a deep copy (SealedPage.Copy): a struct copy still shares the
// ciphertext. Frozen records are never kept for reuse.
//
// Freeze splits the store in two: every page it holds moves into a
// base that no store writes again, and pages becomes an empty private
// delta. Get reads the delta first, then the base unless this store
// deleted the entry or dropped its enclave; Put, Delete and
// DropEnclave change only the delta and the two hiding sets. A Clone
// copies the delta and shares the base, so cloning a frozen store
// costs what was written since the freeze, and clones of one frozen
// store may be taken and run concurrently.
type BackingStore struct {
	pages map[PageID]*SealedPage // the delta: every page of a store never frozen

	base    map[PageID]*SealedPage // frozen pages shared with clones; nil until Freeze
	hidden  map[PageID]struct{}    // base entries this store deleted
	dropped []uint32               // enclaves whose base entries this store dropped

	// dead holds the unfrozen records Delete and a replacing Put took
	// out of the store, ciphertext and all, for Take to hand back to
	// the next seal. Load-backs fill it and every eviction takes one
	// record back out, so it holds about an EPC's worth of records at
	// most. Clone does not copy it.
	dead []*SealedPage
}

// NewBackingStore returns an empty backing store.
func NewBackingStore() *BackingStore {
	return &BackingStore{pages: make(map[PageID]*SealedPage)}
}

// recycle gives a dead entry's ciphertext back to the page recycler
// and marks the entry compact. A frozen page is still referenced by
// another store and is left alone.
func (b *BackingStore) recycle(p *SealedPage) {
	if !p.frozen && p.Ciphertext != nil {
		FreeFrame(p.Ciphertext)
		p.Ciphertext = nil
	}
}

// retire keeps a record that left the store for Take to reuse. A
// frozen record is still referenced by another store and is dropped.
func (b *BackingStore) retire(p *SealedPage) {
	if !p.frozen {
		b.dead = append(b.dead, p)
	}
}

// Take returns a record for the next seal to overwrite (see
// mee.Batch.SealPageInto): the last one the store retired, with its
// ciphertext buffer, or a fresh one when it holds none. The record is
// the caller's until it Puts it back; it is never frozen and no Get
// returns it.
func (b *BackingStore) Take() *SealedPage {
	n := len(b.dead)
	if n == 0 {
		return new(SealedPage)
	}
	p := b.dead[n-1]
	b.dead[n-1] = nil
	b.dead = b.dead[:n-1]
	return p
}

// Put stores the sealed page, replacing any previous version.
func (b *BackingStore) Put(p *SealedPage) {
	if old := b.pages[p.ID]; old != nil && old != p {
		b.retire(old)
	}
	b.pages[p.ID] = p
}

// Get returns the sealed page for id, or nil when the page was never
// evicted.
func (b *BackingStore) Get(id PageID) *SealedPage {
	if p := b.pages[id]; p != nil || b.base == nil {
		return p
	}
	if _, ok := b.hidden[id]; ok || slices.Contains(b.dropped, id.Enclave) {
		return nil
	}
	return b.base[id]
}

// Delete removes the sealed page for id, if present.
func (b *BackingStore) Delete(id PageID) {
	if old := b.pages[id]; old != nil {
		b.retire(old)
		delete(b.pages, id)
	}
	if b.base[id] != nil {
		if b.hidden == nil {
			b.hidden = make(map[PageID]struct{})
		}
		b.hidden[id] = struct{}{}
	}
}

// Freeze makes every page the store holds its frozen base, shared by
// every later Clone instead of copied, and leaves the store an empty
// delta over it. The records it kept for reuse give their ciphertext
// back to the page recycler, so a template that outlives its batch
// holds none. It does not change what Get returns. A store freezes
// once, before any clone of it is taken.
func (b *BackingStore) Freeze() {
	if b.base != nil {
		panic("mem: BackingStore frozen twice")
	}
	for _, p := range b.pages {
		p.frozen = true
	}
	b.base, b.pages = b.pages, make(map[PageID]*SealedPage)
	for _, p := range b.dead {
		b.recycle(p)
	}
	b.dead = nil
}

// Clone returns a store holding the same sealed pages. It shares the
// frozen base and copies the delta, whose pages it shares
// copy-on-write: every delta page is frozen, so neither b nor any
// clone recycles its ciphertext, and replacing or deleting it in one
// store only drops that store's reference. Freezing a delta page is
// Clone's one write to b, so concurrent Clones are safe only of a
// frozen store with nothing written since.
func (b *BackingStore) Clone() *BackingStore {
	c := &BackingStore{
		pages:   make(map[PageID]*SealedPage, len(b.pages)),
		base:    b.base,
		hidden:  maps.Clone(b.hidden),
		dropped: slices.Clone(b.dropped),
	}
	for id, p := range b.pages {
		if !p.frozen {
			p.frozen = true
		}
		c.pages[id] = p
	}
	return c
}

// DropEnclave removes every sealed page belonging to the enclave.
func (b *BackingStore) DropEnclave(enclave uint32) {
	for id, p := range b.pages {
		if id.Enclave == enclave {
			b.recycle(p)
			delete(b.pages, id)
		}
	}
	if b.base != nil && !slices.Contains(b.dropped, enclave) {
		b.dropped = append(b.dropped, enclave)
	}
}

// Release gives the ciphertext of every page the store holds or keeps
// for reuse, frozen ones excepted, back to the page recycler and
// empties the store for good: a later Put panics. The owning machine
// calls it when its run ends (sgx.Machine.Release).
func (b *BackingStore) Release() {
	for _, p := range b.pages {
		b.recycle(p)
	}
	for _, p := range b.dead {
		b.recycle(p)
	}
	b.pages, b.base, b.hidden, b.dropped, b.dead = nil, nil, nil, nil, nil
}
