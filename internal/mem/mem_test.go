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

func TestPoolRecyclesZeroed(t *testing.T) {
	var p Pool
	f := p.Get()
	f.Data[0] = 0xAA
	f.Data[PageSize-1] = 0xBB
	p.Put(f)
	g := p.Get()
	if g != f {
		t.Fatal("pool did not recycle the frame")
	}
	if g.Data[0] != 0 || g.Data[PageSize-1] != 0 {
		t.Error("recycled frame was not zeroed")
	}
}

func TestPoolPutNil(t *testing.T) {
	var p Pool
	p.Put(nil) // must not panic
	if f := p.Get(); f == nil {
		t.Fatal("Get returned nil")
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
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	// Replacement keeps one entry.
	sp2 := &SealedPage{ID: id, Version: 8}
	b.Put(sp2)
	if got := b.Get(id); got != sp2 || b.Len() != 1 {
		t.Fatal("Put did not replace")
	}
	b.Delete(id)
	if b.Get(id) != nil || b.Len() != 0 {
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
	if b.Len() != 10 {
		t.Fatalf("Len = %d after DropEnclave, want 10", b.Len())
	}
	if b.Get(PageID{Enclave: 1, VPN: 3}) != nil {
		t.Error("enclave 1 page survived DropEnclave")
	}
	if b.Get(PageID{Enclave: 2, VPN: 3}) == nil {
		t.Error("enclave 2 page was dropped")
	}
}

func TestPageIDString(t *testing.T) {
	s := PageID{Enclave: 5, VPN: 0x10}.String()
	if s != "enclave 5 vpn 0x10" {
		t.Errorf("String = %q", s)
	}
}

func TestBackingStoreCloneSharesFrozenPages(t *testing.T) {
	b := NewBackingStore()
	ids := []PageID{{Enclave: 1, VPN: 1}, {Enclave: 1, VPN: 2}}
	for _, id := range ids {
		b.Put(&SealedPage{ID: id, Version: 1})
	}
	c := b.Clone()
	if c.Len() != 2 || c.Get(ids[0]) != b.Get(ids[0]) {
		t.Fatal("clone does not share the source's sealed pages")
	}
	// Dropping a shared page from the clone leaves the source intact
	// and must not hand the page's storage out for reuse.
	c.Delete(ids[0])
	c.Put(&SealedPage{ID: ids[1], Version: 2})
	if c.Reserve() != nil {
		t.Error("clone recycled a frozen page")
	}
	if b.Get(ids[0]) == nil || b.Get(ids[1]).Version != 1 {
		t.Error("clone mutations reached the source store")
	}
	// The source keeps its pages frozen too: a clone may still read
	// them.
	b.Delete(ids[0])
	if b.Reserve() != nil {
		t.Error("source recycled a page shared with its clone")
	}
	// Pages sealed after the clone are the clone's own and recycle.
	own := &SealedPage{ID: PageID{Enclave: 1, VPN: 3}}
	c.Put(own)
	c.Delete(own.ID)
	if c.Reserve() != own {
		t.Error("clone did not recycle a page it sealed itself")
	}
}
