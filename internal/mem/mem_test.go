package mem

import (
	"testing"
	"testing/quick"
)

func TestPageMath(t *testing.T) {
	cases := []struct {
		addr       uint64
		base, vpn  uint64
		lineNumber uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{4095, 0, 0, 63},
		{4096, 4096, 1, 64},
		{0x7000_0000_1234, 0x7000_0000_1000, 0x7000_0000_1, 0x1C0_0000_0048},
	}
	for _, c := range cases {
		if got := PageBase(c.addr); got != c.base {
			t.Errorf("PageBase(%#x) = %#x, want %#x", c.addr, got, c.base)
		}
		if got := PageNumber(c.addr); got != c.vpn {
			t.Errorf("PageNumber(%#x) = %#x, want %#x", c.addr, got, c.vpn)
		}
		if got := LineNumber(c.addr); got != c.lineNumber {
			t.Errorf("LineNumber(%#x) = %#x, want %#x", c.addr, got, c.lineNumber)
		}
	}
}

func TestPageMathProperties(t *testing.T) {
	f := func(addr uint64) bool {
		return PageBase(addr)%PageSize == 0 &&
			PageBase(addr) <= addr &&
			addr-PageBase(addr) < PageSize &&
			PageNumber(addr) == PageBase(addr)/PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBackingStoreRoundTrip(t *testing.T) {
	b := NewBackingStore()
	id := PageID{Enclave: 3, VPN: 0x123}
	if b.Get(id) != nil {
		t.Fatal("empty store returned a page")
	}
	sp := &SealedPage{ID: id, Version: 7}
	b.Put(sp)
	if got := b.Get(id); got != sp {
		t.Fatal("Get returned wrong page")
	}
	if b.Get(PageID{Enclave: 3, VPN: 0x124}) != nil {
		t.Fatal("Get returned a page that was never stored")
	}
	sp2 := &SealedPage{ID: id, Version: 8}
	b.Put(sp2)
	if got := b.Get(id); got != sp2 {
		t.Fatal("Put did not replace")
	}
	b.Delete(id)
	if b.Get(id) != nil {
		t.Fatal("Delete did not remove")
	}
	b.Delete(id) // idempotent
}

func TestBackingStoreDropEnclave(t *testing.T) {
	b := NewBackingStore()
	for vpn := uint64(0); vpn < 10; vpn++ {
		b.Put(&SealedPage{ID: PageID{Enclave: 1, VPN: vpn}})
		b.Put(&SealedPage{ID: PageID{Enclave: 2, VPN: vpn}})
	}
	b.DropEnclave(1)
	for vpn := uint64(0); vpn < 10; vpn++ {
		if b.Get(PageID{Enclave: 1, VPN: vpn}) != nil {
			t.Errorf("enclave 1 vpn %d survived DropEnclave", vpn)
		}
		if b.Get(PageID{Enclave: 2, VPN: vpn}) == nil {
			t.Errorf("enclave 2 vpn %d was dropped", vpn)
		}
	}
}

func TestPageIDString(t *testing.T) {
	s := PageID{Enclave: 5, VPN: 0x10}.String()
	if s != "enclave 5 vpn 0x10" {
		t.Errorf("String = %q", s)
	}
}

// sealed returns a stored page with a ciphertext buffer of its own.
func sealed(id PageID, version uint64) *SealedPage {
	p := &SealedPage{ID: id, Version: version, Ciphertext: NewFrame()}
	p.Ciphertext.Data[0] = 1
	return p
}

func TestBackingStoreCloneSharesFrozenPages(t *testing.T) {
	b := NewBackingStore()
	ids := []PageID{{Enclave: 1, VPN: 1}, {Enclave: 1, VPN: 2}}
	for _, id := range ids {
		b.Put(sealed(id, 1))
	}
	shared := b.Get(ids[0])
	c := b.Clone()
	if c.Get(ids[0]) != shared || c.Get(ids[1]) != b.Get(ids[1]) {
		t.Fatal("clone does not share the source's sealed pages")
	}
	// Dropping a shared page from the clone leaves the source intact
	// and must not hand the page's ciphertext out for reuse.
	c.Delete(ids[0])
	c.Put(sealed(ids[1], 2))
	if shared.Ciphertext == nil || b.Get(ids[1]).Ciphertext == nil {
		t.Error("clone recycled a frozen page's ciphertext")
	}
	if b.Get(ids[0]) == nil || b.Get(ids[1]).Version != 1 {
		t.Error("clone mutations reached the source store")
	}
	// The source keeps its pages frozen too: a clone may still read
	// them.
	b.Delete(ids[0])
	if shared.Ciphertext == nil {
		t.Error("source recycled a page shared with its clone")
	}
	// Pages sealed after the clone are the clone's own: a delete keeps
	// one, ciphertext and all, for the next seal to reuse.
	own := sealed(PageID{Enclave: 1, VPN: 3}, 1)
	c.Put(own)
	c.Delete(own.ID)
	if c.Get(own.ID) != nil {
		t.Error("a deleted page is still stored")
	}
	if got := c.Take(); got != own || own.Ciphertext == nil {
		t.Error("clone did not keep a page it sealed itself for reuse")
	}
	// The shared pages either store deleted or replaced were not kept:
	// Take has nothing left to give but a fresh record.
	for _, st := range []*BackingStore{b, c} {
		if p := st.Take(); p.Frozen() || p == shared || p.Ciphertext != nil || p.ID != (PageID{}) {
			t.Error("a store handed a frozen page out for reuse")
		}
	}
}

// TestPageRecycler checks the recycler's contract: a freed buffer
// comes back zeroed, and the recycler never holds more than its bound.
func TestPageRecycler(t *testing.T) {
	f := NewFrame()
	f.Data[7] = 0xAA
	FreeFrame(f)
	if g := NewFrame(); g.Data != (Frame{}).Data {
		t.Fatal("a recycled frame came back dirty")
	}
	for range maxPooledPages + 10 {
		FreeFrame(new(Frame))
	}
	if n := PooledPages(); n != maxPooledPages {
		t.Errorf("recycler holds %d pages, want its bound %d", n, maxPooledPages)
	}
}

// TestBackingStoreRelease: Release recycles every unshared page's
// ciphertext, those kept for reuse included, keeps frozen ones intact
// and leaves the store unusable.
func TestBackingStoreRelease(t *testing.T) {
	b := NewBackingStore()
	shared := sealed(PageID{Enclave: 1, VPN: 1}, 1)
	b.Put(shared)
	c := b.Clone()
	own := sealed(PageID{Enclave: 1, VPN: 2}, 1)
	c.Put(own)
	retired := sealed(PageID{Enclave: 1, VPN: 4}, 1)
	c.Put(retired)
	c.Delete(retired.ID)
	c.Release()
	if own.Ciphertext != nil {
		t.Error("Release kept an unshared page's ciphertext")
	}
	if retired.Ciphertext != nil {
		t.Error("Release kept the ciphertext of a page kept for reuse")
	}
	if shared.Ciphertext == nil || shared.Ciphertext.Data[0] != 1 {
		t.Error("Release recycled a page shared with the source store")
	}
	if c.Get(shared.ID) != nil || c.Get(own.ID) != nil {
		t.Error("a released store still holds pages")
	}
	defer func() {
		if recover() == nil {
			t.Error("Put into a released store did not panic")
		}
	}()
	c.Put(sealed(PageID{Enclave: 1, VPN: 3}, 1))
}
