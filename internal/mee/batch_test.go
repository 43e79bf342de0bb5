package mee

import (
	"bytes"
	"errors"
	"testing"

	"sgxgauge/internal/mem"
)

func testFrame(fill byte) *mem.Frame {
	f := &mem.Frame{}
	for i := range f.Data {
		f.Data[i] = fill ^ byte(i*7)
	}
	return f
}

// TestBatchSealIdentical proves a Batch produces byte-identical sealed
// pages to the per-call engine path, including when the cached cipher
// and HMAC state are reused across several pages — the whole point of
// the batch is that only host-side setup is amortized.
func TestBatchSealIdentical(t *testing.T) {
	e := New(42)
	b := e.NewBatch()
	for i := 0; i < 5; i++ {
		id := mem.PageID{Enclave: uint32(i%2 + 1), VPN: uint64(0x1000 + i)}
		ver := uint64(i + 1)
		f := testFrame(byte(i))
		single := e.SealPage(id, ver, f)
		batched := new(mem.SealedPage)
		b.SealPageInto(batched, id, ver, f)
		if single.ID != batched.ID || single.Version != batched.Version {
			t.Fatalf("page %d: metadata mismatch", i)
		}
		if !bytes.Equal(single.Ciphertext.Data[:], batched.Ciphertext.Data[:]) {
			t.Fatalf("page %d: ciphertext differs between single and batched seal", i)
		}
		if single.MAC != batched.MAC {
			t.Fatalf("page %d: MAC differs between single and batched seal", i)
		}
	}
}

// TestBatchUnsealMatchesEngine checks the batched unseal round-trips
// and reports the same typed errors as the per-call path.
func TestBatchUnsealMatchesEngine(t *testing.T) {
	e := New(7)
	b := e.NewBatch()
	id := mem.PageID{Enclave: 3, VPN: 0x44}
	f := testFrame(0xa5)
	sp := e.SealPage(id, 9, f)

	var out mem.Frame
	if err := b.UnsealPage(sp, 9, &out); err != nil {
		t.Fatalf("batched unseal: %v", err)
	}
	if !bytes.Equal(out.Data[:], f.Data[:]) {
		t.Fatal("batched unseal produced wrong plaintext")
	}

	if err := b.UnsealPage(sp, 8, &out); !errors.Is(err, ErrRollback) {
		t.Fatalf("stale version: got %v, want ErrRollback", err)
	}
	tampered := sp.Copy()
	tampered.Ciphertext.Data[100] ^= 1
	if err := b.UnsealPage(tampered, 9, &out); !errors.Is(err, ErrMACMismatch) {
		t.Fatalf("tampered page: got %v, want ErrMACMismatch", err)
	}
	// The batch state must be unpoisoned by the failures.
	if err := b.UnsealPage(sp, 9, &out); err != nil {
		t.Fatalf("unseal after failures: %v", err)
	}
}

// TestSealBatchVerifyBatch runs the multi-page entry points against
// per-page loops.
func TestSealBatchVerifyBatch(t *testing.T) {
	e := New(99)
	const n = BatchPagesForTest
	ids := make([]mem.PageID, n)
	vers := make([]uint64, n)
	frames := make([]*mem.Frame, n)
	for i := range ids {
		ids[i] = mem.PageID{Enclave: 1, VPN: uint64(i)}
		vers[i] = uint64(i + 1)
		frames[i] = testFrame(byte(i * 3))
	}
	out := make([]*mem.SealedPage, n)
	e.SealBatch(ids, vers, frames, out)
	for i := range out {
		want := e.SealPage(ids[i], vers[i], frames[i])
		if !bytes.Equal(want.Ciphertext.Data[:], out[i].Ciphertext.Data[:]) || want.MAC != out[i].MAC {
			t.Fatalf("page %d: SealBatch output differs from SealPage", i)
		}
	}

	dst := make([]*mem.Frame, n)
	for i := range dst {
		dst[i] = &mem.Frame{}
	}
	if err := e.VerifyBatch(out, vers, dst); err != nil {
		t.Fatalf("VerifyBatch: %v", err)
	}
	for i := range dst {
		if !bytes.Equal(dst[i].Data[:], frames[i].Data[:]) {
			t.Fatalf("page %d: VerifyBatch plaintext mismatch", i)
		}
	}

	// A failure mid-batch stops the pass and leaves later frames
	// untouched.
	out[1].MAC[0] ^= 1
	for i := range dst {
		dst[i] = &mem.Frame{}
	}
	err := e.VerifyBatch(out, vers, dst)
	if !errors.Is(err, ErrMACMismatch) {
		t.Fatalf("tampered batch: got %v, want ErrMACMismatch", err)
	}
	if dst[2].Data != (mem.Frame{}).Data {
		t.Fatal("VerifyBatch wrote past the failing page")
	}
}

// BatchPagesForTest is the batch width the tests exercise; matches the
// EPC's 16-page EWB batches.
const BatchPagesForTest = 16

// TestBatchReusedRecordAllocatesNothing: sealing into a reused record
// and unsealing it through a Batch allocate nothing, the nonce and
// header included, for a page with contents and a compact one alike.
func TestBatchReusedRecordAllocatesNothing(t *testing.T) {
	e := New(3)
	b := e.NewBatch()
	id := mem.PageID{Enclave: 1, VPN: 9}
	var sp mem.SealedPage
	var out mem.Frame
	for _, f := range []*mem.Frame{testFrame(0x5a), {}} {
		version := uint64(0)
		cycle := func() {
			version++
			b.SealPageInto(&sp, id, version, f)
			if err := b.UnsealPage(&sp, version, &out); err != nil || out.Data != f.Data {
				t.Fatalf("round trip of version %d: err=%v", version, err)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Errorf("compact=%v: a seal into a reused record and its unseal allocate %v times, want 0", f.Data == zeroPage, n)
		}
	}
}

// TestSealPageIntoFrozenPanics: a frozen record is shared with other
// stores, so resealing it would change their pages.
func TestSealPageIntoFrozenPanics(t *testing.T) {
	e := New(1)
	store := mem.NewBackingStore()
	sp := e.SealPage(mem.PageID{Enclave: 1, VPN: 1}, 1, testFrame(1))
	want := *sp.Ciphertext
	store.Put(sp)
	store.Clone()
	defer func() {
		if recover() == nil {
			t.Fatal("SealPageInto a frozen page did not panic")
		}
		if sp.Version != 1 || *sp.Ciphertext != want {
			t.Fatal("SealPageInto wrote a frozen page")
		}
	}()
	e.NewBatch().SealPageInto(sp, sp.ID, 2, testFrame(2))
}
