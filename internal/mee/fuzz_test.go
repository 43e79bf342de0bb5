package mee

import (
	"bytes"
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
		sealed := e.Seal(enclaveID, context, plaintext)

		if corruptAt < 0 || flip == 0 {
			// Clean round trip.
			got, err := e.Unseal(enclaveID, context, sealed)
			if err != nil {
				t.Fatalf("unseal of untampered blob: %v", err)
			}
			if !bytes.Equal(got, plaintext) {
				t.Fatalf("round trip mangled data: got %x, want %x", got, plaintext)
			}
			// Wrong identity or context must be rejected.
			if _, err := e.Unseal(enclaveID+1, context, sealed); !errors.Is(err, ErrMACMismatch) {
				t.Fatalf("unseal under wrong enclave: err=%v, want ErrMACMismatch", err)
			}
			if _, err := e.Unseal(enclaveID, context+1, sealed); !errors.Is(err, ErrMACMismatch) {
				t.Fatalf("unseal under wrong context: err=%v, want ErrMACMismatch", err)
			}
			return
		}

		// Corrupt one byte anywhere in the blob (IV, ciphertext or
		// MAC): unseal must reject it.
		sealed[corruptAt%len(sealed)] ^= flip
		if _, err := e.Unseal(enclaveID, context, sealed); !errors.Is(err, ErrMACMismatch) {
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
				sp.Ciphertext[off] ^= flip
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
