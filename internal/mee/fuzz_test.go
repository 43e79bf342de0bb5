package mee

import (
	"bytes"
	"crypto/cipher"
	"errors"
	"testing"

	"sgxgauge/internal/mem"
)

// FuzzSealUnseal drives the sealing primitive with arbitrary
// identities, payloads and corruptions: an untouched blob must round
// trip exactly, and any corrupted byte must surface as ErrMACMismatch
// — never a panic, and never silently wrong plaintext.
func FuzzSealUnseal(f *testing.F) {
	f.Add(uint64(1), uint32(1), uint64(0), []byte("hello enclave"), -1, byte(0))
	f.Add(uint64(2), uint32(7), uint64(99), []byte{}, -1, byte(0))
	f.Add(uint64(3), uint32(0), uint64(5), []byte("tamper me"), 0, byte(0x80))
	f.Add(uint64(4), uint32(42), uint64(7), bytes.Repeat([]byte{0xAA}, 300), 20, byte(1))

	f.Fuzz(func(t *testing.T, seed uint64, enclaveID uint32, context uint64,
		plaintext []byte, corruptAt int, flip byte) {
		e := New(seed)
		sealed := e.Seal(nil, enclaveID, context, plaintext)

		if corruptAt < 0 || flip == 0 {
			// Clean round trip.
			got, err := e.Unseal(nil, enclaveID, context, sealed)
			if err != nil {
				t.Fatalf("unseal of untampered blob: %v", err)
			}
			if !bytes.Equal(got, plaintext) {
				t.Fatalf("round trip mangled data: got %x, want %x", got, plaintext)
			}
			// Wrong identity or context must be rejected.
			if _, err := e.Unseal(nil, enclaveID+1, context, sealed); !errors.Is(err, ErrMACMismatch) {
				t.Fatalf("unseal under wrong enclave: err=%v, want ErrMACMismatch", err)
			}
			if _, err := e.Unseal(nil, enclaveID, context+1, sealed); !errors.Is(err, ErrMACMismatch) {
				t.Fatalf("unseal under wrong context: err=%v, want ErrMACMismatch", err)
			}
			return
		}

		// Corrupt one byte anywhere in the blob (IV, ciphertext or
		// MAC): unseal must reject it.
		sealed[corruptAt%len(sealed)] ^= flip
		if _, err := e.Unseal(nil, enclaveID, context, sealed); !errors.Is(err, ErrMACMismatch) {
			t.Fatalf("unseal of corrupted blob: err=%v, want ErrMACMismatch", err)
		}
	})
}

// FuzzUnsealPage covers the page path the EPC driver uses on
// load-back: ciphertext or MAC corruption must yield ErrMACMismatch,
// a version mismatch must yield ErrRollback, and nothing panics.
func FuzzUnsealPage(f *testing.F) {
	f.Add(uint64(1), uint32(1), uint64(3), uint64(2), uint64(2), -1, byte(0))
	f.Add(uint64(2), uint32(9), uint64(0), uint64(1), uint64(2), -1, byte(0))
	f.Add(uint64(3), uint32(4), uint64(8), uint64(5), uint64(5), 100, byte(0xFF))
	f.Add(uint64(4), uint32(4), uint64(8), uint64(5), uint64(5), mem.PageSize+3, byte(1))
	f.Add(uint64(5), uint32(3), uint64(7), uint64(4), uint64(4), -1, byte(0))    // zero plaintext: a compact page
	f.Add(uint64(6), uint32(3), uint64(7), uint64(4), uint64(4), 64, byte(0x20)) // compact, ciphertext flipped

	f.Fuzz(func(t *testing.T, seed uint64, enclave uint32, vpn uint64,
		version, expectVersion uint64, corruptAt int, flip byte) {
		e := New(seed)
		id := mem.PageID{Enclave: enclave, VPN: vpn}
		// A vpn that is 7 mod 8 seals the all-zero page, which is
		// stored compact.
		var src mem.Frame
		if vpn%8 != 7 {
			for i := range src.Data {
				src.Data[i] = byte(i) ^ byte(vpn)
			}
		}
		sp := e.SealPage(id, version, &src)
		if zero := src.Data == zeroPage; (sp.Ciphertext == nil) != zero {
			t.Fatalf("compact = %v for an all-zero page = %v", sp.Ciphertext == nil, zero)
		}

		corrupted := corruptAt >= 0 && flip != 0
		if corrupted {
			// Offset spans ciphertext and MAC.
			off := corruptAt % (mem.PageSize + len(sp.MAC))
			if off < mem.PageSize {
				e.Materialize(sp)
				sp.Ciphertext.Data[off] ^= flip
			} else {
				sp.MAC[off-mem.PageSize] ^= flip
			}
		}

		var dst mem.Frame
		err := e.UnsealPage(sp, expectVersion, &dst)
		switch {
		case version != expectVersion:
			if !errors.Is(err, ErrRollback) {
				t.Fatalf("version %d vs expected %d: err=%v, want ErrRollback", version, expectVersion, err)
			}
		case corrupted:
			if !errors.Is(err, ErrMACMismatch) {
				t.Fatalf("corrupted page: err=%v, want ErrMACMismatch", err)
			}
		default:
			if err != nil {
				t.Fatalf("clean page rejected: %v", err)
			}
			if dst.Data != src.Data {
				t.Fatal("page round trip mangled data")
			}
		}
	})
}

// unsealCompactTwoPass is the load-back of a compact page in two GCM
// passes, as unsealPage did it before taking one: rebuild the
// ciphertext by sealing the zero page, then open it against the stored
// MAC. It is FuzzUnsealCompact's oracle.
func unsealCompactTwoPass(aead cipher.AEAD, sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	if sp.Version != expectVersion {
		return ErrRollback
	}
	var scratch pageScratch
	sealZero(aead, &scratch, sp.ID, sp.Version)
	copy(scratch.buf[mem.PageSize:], sp.MAC[:])
	iv := nonce(sp.ID, sp.Version)
	hdr := pageHeader(sp.ID, sp.Version)
	if _, err := aead.Open(f.Data[:0], iv[:], scratch.buf[:], hdr[:]); err != nil {
		return ErrMACMismatch
	}
	return nil
}

// FuzzUnsealCompact checks the one-pass load-back of a compact sealed
// page against the two-pass oracle, with the stored identity, version
// and MAC tampered with: both must return the same error, the one the
// tampering calls for, and a page that verifies must load back all
// zero whatever the frame held before.
func FuzzUnsealCompact(f *testing.F) {
	f.Add(uint64(1), uint32(1), uint64(3), uint64(2), uint64(2), uint32(0), uint64(0), uint64(0), -1, byte(0))
	f.Add(uint64(2), uint32(9), uint64(0), uint64(1), uint64(2), uint32(0), uint64(0), uint64(0), -1, byte(0))
	f.Add(uint64(3), uint32(4), uint64(8), uint64(5), uint64(5), uint32(0), uint64(0), uint64(0), 15, byte(0x80))
	f.Add(uint64(4), uint32(4), uint64(8), uint64(5), uint64(5), uint32(1), uint64(0), uint64(0), -1, byte(0))
	f.Add(uint64(5), uint32(4), uint64(8), uint64(5), uint64(5), uint32(0), uint64(1<<40), uint64(0), -1, byte(0))
	f.Add(uint64(6), uint32(4), uint64(8), uint64(5), uint64(6), uint32(0), uint64(0), uint64(3), -1, byte(0))

	f.Fuzz(func(t *testing.T, seed uint64, enclave uint32, vpn, version, expectVersion uint64,
		enclaveXor uint32, vpnXor, versionXor uint64, macAt int, flip byte) {
		e := New(seed)
		var zero mem.Frame
		sp := e.SealPage(mem.PageID{Enclave: enclave, VPN: vpn}, version, &zero)
		if sp.Ciphertext != nil {
			t.Fatal("the all-zero page was stored with its ciphertext")
		}
		sp.ID.Enclave ^= enclaveXor
		sp.ID.VPN ^= vpnXor
		sp.Version ^= versionXor
		if macAt >= 0 {
			sp.MAC[macAt%len(sp.MAC)] ^= flip
		}
		tampered := enclaveXor != 0 || vpnXor != 0 || versionXor != 0 || (macAt >= 0 && flip != 0)
		var want error
		switch {
		case sp.Version != expectVersion:
			want = ErrRollback
		case tampered:
			want = ErrMACMismatch
		}

		aead := e.pageAEAD()
		var got, oracle mem.Frame
		for i := range got.Data {
			got.Data[i] = byte(i) | 1
		}
		oracle = got
		err := unsealPage(aead, new(pageScratch), sp, expectVersion, &got)
		if oracleErr := unsealCompactTwoPass(aead, sp, expectVersion, &oracle); err != oracleErr {
			t.Fatalf("one pass: err=%v, two passes: err=%v", err, oracleErr)
		}
		if err != want {
			t.Fatalf("err=%v, want %v", err, want)
		}
		if err == nil && (got.Data != zero.Data || oracle.Data != zero.Data) {
			t.Fatal("a compact page loaded back other than all zero")
		}
	})
}
