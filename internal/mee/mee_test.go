package mee

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"sgxgauge/internal/mem"
)

func TestPageSealUnsealRoundTrip(t *testing.T) {
	e := New(42)
	id := mem.PageID{Enclave: 1, VPN: 0x700001}
	var f mem.Frame
	for i := range f.Data {
		f.Data[i] = byte(i * 7)
	}
	sp := e.SealPage(id, 1, &f)
	if bytes.Equal(sp.Ciphertext.Data[:256], f.Data[:256]) {
		t.Fatal("ciphertext equals plaintext")
	}
	var out mem.Frame
	if err := e.UnsealPage(sp, 1, &out); err != nil {
		t.Fatalf("UnsealPage: %v", err)
	}
	if out.Data != f.Data {
		t.Fatal("round trip corrupted the page")
	}
}

func TestPageMACTamperDetected(t *testing.T) {
	e := New(42)
	id := mem.PageID{Enclave: 1, VPN: 5}
	var f mem.Frame
	f.Data[100] = 0x5A
	sp := e.SealPage(id, 1, &f)
	sp.Ciphertext.Data[100] ^= 1 // untrusted memory flips a bit
	var out mem.Frame
	if err := e.UnsealPage(sp, 1, &out); err != ErrMACMismatch {
		t.Fatalf("tampered page unsealed: err=%v, want ErrMACMismatch", err)
	}
}

func TestPageRollbackDetected(t *testing.T) {
	e := New(42)
	id := mem.PageID{Enclave: 1, VPN: 5}
	var f mem.Frame
	f.Data[0] = 1
	old := e.SealPage(id, 1, &f)
	f.Data[0] = 2
	_ = e.SealPage(id, 2, &f)
	// Replaying the version-1 page against expected version 2 is a
	// freshness violation.
	var out mem.Frame
	if err := e.UnsealPage(old, 2, &out); err != ErrRollback {
		t.Fatalf("stale page accepted: err=%v, want ErrRollback", err)
	}
}

func TestDifferentVersionsDifferentCiphertext(t *testing.T) {
	e := New(42)
	id := mem.PageID{Enclave: 1, VPN: 5}
	var f mem.Frame
	a := e.SealPage(id, 1, &f)
	b := e.SealPage(id, 2, &f)
	e.Materialize(a)
	e.Materialize(b)
	if *a.Ciphertext == *b.Ciphertext {
		t.Fatal("same key stream reused across versions")
	}
}

func TestDifferentPagesDifferentCiphertext(t *testing.T) {
	e := New(42)
	var f mem.Frame
	a := e.SealPage(mem.PageID{Enclave: 1, VPN: 5}, 1, &f)
	b := e.SealPage(mem.PageID{Enclave: 1, VPN: 6}, 1, &f)
	c := e.SealPage(mem.PageID{Enclave: 2, VPN: 5}, 1, &f)
	for _, sp := range []*mem.SealedPage{a, b, c} {
		e.Materialize(sp)
	}
	if *a.Ciphertext == *b.Ciphertext || *a.Ciphertext == *c.Ciphertext {
		t.Fatal("key stream reused across pages or enclaves")
	}
}

func TestEnginesAreDeterministicPerSeed(t *testing.T) {
	id := mem.PageID{Enclave: 1, VPN: 5}
	var f mem.Frame
	f.Data[9] = 9
	a := New(7).SealPage(id, 1, &f)
	b := New(7).SealPage(id, 1, &f)
	c := New(8).SealPage(id, 1, &f)
	if *a.Ciphertext != *b.Ciphertext || a.MAC != b.MAC {
		t.Fatal("same seed produced different engines")
	}
	if *a.Ciphertext == *c.Ciphertext {
		t.Fatal("different seeds share a key")
	}
}

func TestCrossEngineUnsealFails(t *testing.T) {
	id := mem.PageID{Enclave: 1, VPN: 5}
	var f, out mem.Frame
	sp := New(7).SealPage(id, 1, &f)
	if err := New(8).UnsealPage(sp, 1, &out); err != ErrMACMismatch {
		t.Fatalf("foreign platform unsealed the page: %v", err)
	}
}

func TestSealUnsealBlob(t *testing.T) {
	e := New(1)
	plain := []byte("the quick brown fox")
	sealed := e.Seal(nil, 9, 1234, plain)
	if bytes.Contains(sealed, plain) {
		t.Fatal("sealed blob leaks plaintext")
	}
	out, err := e.Unseal(nil, 9, 1234, sealed)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(out, plain) {
		t.Fatalf("round trip = %q, want %q", out, plain)
	}
}

// TestSealAppendsToDst: Seal and Unseal append to dst as cipher.AEAD
// does, writing into its spare room without allocating when it has
// enough, and the bytes match a seal into nil.
func TestSealAppendsToDst(t *testing.T) {
	e := New(1)
	plain := bytes.Repeat([]byte("chunk!"), 100)
	want := e.Seal(nil, 9, 7, plain)
	prefix := []byte("hdr")
	got := e.Seal(bytes.Clone(prefix), 9, 7, plain)
	if !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
		t.Fatal("Seal into a prefixed dst differs from a seal into nil")
	}
	sealBuf := make([]byte, 0, len(want))
	plainBuf := make([]byte, 0, len(plain))
	sealed := e.Seal(sealBuf, 9, 7, plain)
	opened, err := e.Unseal(plainBuf, 9, 7, sealed)
	if err != nil || !bytes.Equal(sealed, want) || !bytes.Equal(opened, plain) {
		t.Fatalf("round trip through caller buffers: %v", err)
	}
	if &sealed[0] != &sealBuf[:1][0] || &opened[0] != &plainBuf[:1][0] {
		t.Error("Seal or Unseal reallocated a dst with room to spare")
	}
	if out, err := e.Unseal(plainBuf, 9, 8, sealed); err == nil || len(out) != 0 {
		t.Errorf("Unseal under a wrong context = %d bytes, %v; want dst unchanged and an error", len(out), err)
	}
}

// TestSealConcurrentUse: one Engine is shared by a boot template's
// clones, which run on different goroutines, so Seal and Unseal must
// give the same bytes from several goroutines at once as from one.
func TestSealConcurrentUse(t *testing.T) {
	e := New(1)
	const workers, rounds = 4, 100
	plain := bytes.Repeat([]byte("concurrent"), 50)
	want := make([][]byte, rounds)
	for i := range want {
		want[i] = e.Seal(nil, 9, uint64(i), plain)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sealed, opened []byte
			for i := 0; i < rounds; i++ {
				sealed = e.Seal(sealed[:0], 9, uint64(i), plain)
				var err error
				if opened, err = e.Unseal(opened[:0], 9, uint64(i), sealed); err != nil ||
					!bytes.Equal(sealed, want[i]) || !bytes.Equal(opened, plain) {
					t.Errorf("round %d: concurrent seal or unseal differs from the serial one (%v)", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnsealWrongEnclaveOrContext(t *testing.T) {
	e := New(1)
	sealed := e.Seal(nil, 9, 1234, []byte("data"))
	if _, err := e.Unseal(nil, 10, 1234, sealed); err == nil {
		t.Error("unsealed under wrong enclave")
	}
	if _, err := e.Unseal(nil, 9, 1235, sealed); err == nil {
		t.Error("unsealed under wrong context")
	}
}

func TestUnsealTamperAndTruncation(t *testing.T) {
	e := New(1)
	sealed := e.Seal(nil, 9, 1, []byte("data"))
	sealed[len(sealed)-1] ^= 1
	if _, err := e.Unseal(nil, 9, 1, sealed); err != ErrMACMismatch {
		t.Errorf("tampered blob unsealed: %v", err)
	}
	if _, err := e.Unseal(nil, 9, 1, []byte("short")); err != ErrMACMismatch {
		t.Errorf("truncated blob unsealed: %v", err)
	}
}

func TestSealEmptyPayload(t *testing.T) {
	e := New(1)
	out, err := e.Unseal(nil, 3, 0, e.Seal(nil, 3, 0, nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty payload round trip: %v, %d bytes", err, len(out))
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	e := New(99)
	f := func(enclave uint32, context uint64, data []byte) bool {
		out, err := e.Unseal(nil, enclave, context, e.Seal(nil, enclave, context, data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageRoundTripProperty(t *testing.T) {
	e := New(99)
	f := func(enclave uint32, vpn uint64, version uint64, seedByte byte) bool {
		id := mem.PageID{Enclave: enclave, VPN: vpn}
		var in, out mem.Frame
		for i := range in.Data {
			in.Data[i] = seedByte ^ byte(i)
		}
		sp := e.SealPage(id, version, &in)
		return e.UnsealPage(sp, version, &out) == nil && in.Data == out.Data
	}
	cfg := &quick.Config{MaxCount: 25} // pages are 4 KiB; keep it quick
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// zeroSealSHA256 is the SHA-256 of ciphertext ∥ MAC for the all-zero
// page sealed by New(42) as (enclave 1, vpn 5, version 3), taken when
// every sealed page still stored its ciphertext. A compact page must
// regenerate exactly these bytes.
const zeroSealSHA256 = "b7d37ed5dba15083949780b434bac08fa999a7490a7a2940e1651365eba4b672"

func TestZeroPageSealsCompact(t *testing.T) {
	e := New(42)
	var zero mem.Frame
	sp := e.SealPage(mem.PageID{Enclave: 1, VPN: 5}, 3, &zero)
	if sp.Ciphertext != nil {
		t.Fatal("all-zero page kept its ciphertext")
	}
	var out mem.Frame
	out.Data[7] = 1
	if err := e.UnsealPage(sp, 3, &out); err != nil {
		t.Fatalf("UnsealPage of a compact page: %v", err)
	}
	if out.Data != zero.Data {
		t.Fatal("compact page did not unseal to zeros")
	}
	e.Materialize(sp)
	if sp.Ciphertext == nil {
		t.Fatal("Materialize left the page compact")
	}
	h := sha256.New()
	h.Write(sp.Ciphertext.Data[:])
	h.Write(sp.MAC[:])
	if got := hex.EncodeToString(h.Sum(nil)); got != zeroSealSHA256 {
		t.Fatalf("materialized zero seal = %s, want %s", got, zeroSealSHA256)
	}
	if err := e.UnsealPage(sp, 3, &out); err != nil || out.Data != zero.Data {
		t.Fatalf("materialized page: err=%v, zeros=%v", err, out.Data == zero.Data)
	}
}

// TestCompactPageAttacks mounts the untrusted OS's attacks on a
// compact page: a flipped ciphertext bit (after materializing), a
// flipped MAC bit and a replayed older version must all be caught.
func TestCompactPageAttacks(t *testing.T) {
	e := New(42)
	id := mem.PageID{Enclave: 1, VPN: 9}
	var zero, out mem.Frame
	t.Run("bit-flip", func(t *testing.T) {
		sp := e.SealPage(id, 1, &zero)
		e.Materialize(sp)
		sp.Ciphertext.Data[4000] ^= 0x10
		if err := e.UnsealPage(sp, 1, &out); !errors.Is(err, ErrMACMismatch) {
			t.Fatalf("err = %v, want ErrMACMismatch", err)
		}
	})
	t.Run("mac-flip", func(t *testing.T) {
		sp := e.SealPage(id, 1, &zero)
		sp.MAC[3] ^= 1
		if err := e.UnsealPage(sp, 1, &out); !errors.Is(err, ErrMACMismatch) {
			t.Fatalf("err = %v, want ErrMACMismatch", err)
		}
	})
	t.Run("rollback", func(t *testing.T) {
		old := e.SealPage(id, 1, &zero)
		if err := e.UnsealPage(old, 2, &out); !errors.Is(err, ErrRollback) {
			t.Fatalf("err = %v, want ErrRollback", err)
		}
		// A compact page relabelled with the expected version carries
		// the old version's MAC: the rebuilt ciphertext and the header
		// both change, so the tag no longer verifies.
		old.Version = 2
		if err := e.UnsealPage(old, 2, &out); !errors.Is(err, ErrMACMismatch) {
			t.Fatalf("relabelled: err = %v, want ErrMACMismatch", err)
		}
	})
	t.Run("explicit-zeros-as-compact", func(t *testing.T) {
		// Dropping a non-zero page's ciphertext (claiming it compact)
		// must not unseal it as zeros.
		var f mem.Frame
		f.Data[0] = 1
		sp := e.SealPage(id, 1, &f)
		sp.Ciphertext = nil
		if err := e.UnsealPage(sp, 1, &out); !errors.Is(err, ErrMACMismatch) {
			t.Fatalf("err = %v, want ErrMACMismatch", err)
		}
	})
}

// TestRecycledSealedPageModes reseals one SealedPage in place through
// explicit → compact → explicit, as SealBatch does with a reused
// destination: each seal must equal a fresh one and unseal to its own
// plaintext.
func TestRecycledSealedPageModes(t *testing.T) {
	e := New(5)
	b := e.NewBatch()
	id := mem.PageID{Enclave: 2, VPN: 11}
	var sp mem.SealedPage
	for v, fill := range []byte{0xA5, 0, 0x3C} {
		version := uint64(v + 1)
		var f, out mem.Frame
		for i := range f.Data {
			f.Data[i] = fill ^ byte(i*int(fill))
		}
		sealPageInto(b.aead, &b.scratch, &sp, id, version, &f)
		fresh := e.SealPage(id, version, &f)
		if (sp.Ciphertext == nil) != (fill == 0) {
			t.Fatalf("version %d: compact = %v, want %v", version, sp.Ciphertext == nil, fill == 0)
		}
		if sp.MAC != fresh.MAC || (fresh.Ciphertext != nil && *sp.Ciphertext != *fresh.Ciphertext) {
			t.Fatalf("version %d: recycled seal differs from a fresh one", version)
		}
		if err := b.UnsealPage(&sp, version, &out); err != nil || out.Data != f.Data {
			t.Fatalf("version %d: err=%v, round trip ok=%v", version, err, out.Data == f.Data)
		}
	}
}

func TestMaterializePanicsOnFrozenPage(t *testing.T) {
	e := New(1)
	store := mem.NewBackingStore()
	var zero mem.Frame
	sp := e.SealPage(mem.PageID{Enclave: 1, VPN: 1}, 1, &zero)
	store.Put(sp)
	store.Clone()
	defer func() {
		if recover() == nil {
			t.Fatal("Materialize of a frozen page did not panic")
		}
		if sp.Ciphertext != nil {
			t.Fatal("Materialize wrote a frozen page")
		}
	}()
	e.Materialize(sp)
}
