// Package mee implements the Memory Encryption Engine of the simulated
// SGX machine.
//
// The real MEE sits between the LLC and DRAM and transparently
// encrypts EPC traffic; on an EPC eviction (EWB) the page is encrypted
// and MACed, and on load-back (ELDU) it is decrypted and
// integrity-checked (paper §2.2). This package performs that work for
// real: AES-128-GCM over the page — counter-mode confidentiality plus
// a Carter-Wegman (GHASH) authentication tag, the same MAC family the
// hardware MEE uses — and a per-page version counter for freshness
// (rollback protection). The page identity and version are bound into
// both the nonce and the additional authenticated data.
//
// It also provides the "sealing" primitive of Appendix E: data
// encrypted under a platform key that only the same platform (here,
// the same Engine) can unseal.
package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sgxgauge/internal/mem"
)

// Errors returned by integrity verification.
var (
	// ErrMACMismatch indicates the page or sealed blob was tampered
	// with while it resided in untrusted memory.
	ErrMACMismatch = errors.New("mee: MAC verification failed")
	// ErrRollback indicates a stale (replayed) version of the page
	// was presented, violating freshness.
	ErrRollback = errors.New("mee: stale page version (rollback detected)")
)

// Engine is the memory encryption engine. One Engine guards one
// platform; the key is generated at machine boot. Engine methods are
// safe for concurrent use after construction because the key material
// is immutable (cipher instances are created per call).
type Engine struct {
	encKey [16]byte
	macKey [32]byte
}

// New creates an Engine with keys derived deterministically from the
// seed, so simulations are reproducible.
func New(seed uint64) *Engine {
	var e Engine
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte("sgxgauge-mee-enc"))
	copy(e.encKey[:], h.Sum(nil))
	h.Reset()
	h.Write(b[:])
	h.Write([]byte("sgxgauge-mee-mac"))
	copy(e.macKey[:], h.Sum(nil))
	return &e
}

// nonce derives the 16-byte GCM nonce for a page from its identity
// and version; every (page, version) pair gets a distinct nonce so key
// streams and tags are never reused.
func nonce(id mem.PageID, version uint64) [aes.BlockSize]byte {
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint32(iv[0:4], id.Enclave)
	binary.LittleEndian.PutUint64(iv[4:12], id.VPN)
	binary.LittleEndian.PutUint32(iv[12:16], uint32(version))
	return iv
}

// pageHeader is the additional authenticated data bound into a page's
// GCM tag: full identity and full 64-bit version.
func pageHeader(id mem.PageID, version uint64) [20]byte {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], id.Enclave)
	binary.LittleEndian.PutUint64(hdr[4:12], id.VPN)
	binary.LittleEndian.PutUint64(hdr[12:20], version)
	return hdr
}

// pageAEAD builds the page AEAD: AES-128-GCM with the engine's full
// 16-byte page nonce.
func (e *Engine) pageAEAD() cipher.AEAD {
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err)) // key length is fixed; cannot happen
	}
	aead, err := cipher.NewGCMWithNonceSize(block, aes.BlockSize)
	if err != nil {
		panic(fmt.Sprintf("mee: gcm init: %v", err)) // nonce size is fixed; cannot happen
	}
	return aead
}

// SealPage encrypts and MACs one page frame for eviction to untrusted
// memory. The version must be the page's next (monotonically
// increasing) version number.
func (e *Engine) SealPage(id mem.PageID, version uint64, f *mem.Frame) *mem.SealedPage {
	return sealPage(e.pageAEAD(), &[mem.PageSize + 16]byte{}, id, version, f)
}

// UnsealPage decrypts sp into f after verifying its MAC and checking
// that its version matches expectVersion (freshness).
func (e *Engine) UnsealPage(sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	return unsealPage(e.pageAEAD(), &[mem.PageSize + 16]byte{}, sp, expectVersion, f)
}

// sealPage runs one GCM seal through the given AEAD into the caller's
// scratch buffer (ciphertext ∥ tag), then splits it into the sealed
// page. Batch passes a long-lived AEAD and scratch; Engine builds
// per-call ones. The output depends only on the keys and inputs, so
// both produce byte-identical sealed pages.
func sealPage(aead cipher.AEAD, scratch *[mem.PageSize + 16]byte, id mem.PageID, version uint64, f *mem.Frame) *mem.SealedPage {
	sp := &mem.SealedPage{}
	sealPageInto(aead, scratch, sp, id, version, f)
	return sp
}

// zeroPage is the all-zero plaintext whose seal is a compact page's
// ciphertext. Read-only.
var zeroPage [mem.PageSize]byte

// sealPageInto seals into a caller-provided SealedPage, overwriting
// every field — the destination may be recycled storage with stale
// contents (mem.BackingStore.Reserve), whose ciphertext array it
// reuses. Every page gets the full GCM seal and keeps its MAC; an
// all-zero page keeps no ciphertext (a compact page, see
// mem.SealedPage), since unsealPage can regenerate it from the nonce.
func sealPageInto(aead cipher.AEAD, scratch *[mem.PageSize + 16]byte, sp *mem.SealedPage, id mem.PageID, version uint64, f *mem.Frame) {
	sp.ID = id
	sp.Version = version
	iv := nonce(id, version)
	hdr := pageHeader(id, version)
	out := aead.Seal(scratch[:0], iv[:], f.Data[:], hdr[:])
	copy(sp.MAC[:], out[mem.PageSize:])
	if f.Data == zeroPage {
		sp.Ciphertext = nil
		return
	}
	if sp.Ciphertext == nil {
		sp.Ciphertext = new([mem.PageSize]byte)
	}
	copy(sp.Ciphertext[:], out[:mem.PageSize])
}

// sealZero writes the ciphertext ∥ tag of the all-zero page sealed as
// (id, version) into scratch: a compact page's ciphertext and the tag
// an untampered one carries.
func sealZero(aead cipher.AEAD, scratch *[mem.PageSize + 16]byte, id mem.PageID, version uint64) {
	iv := nonce(id, version)
	hdr := pageHeader(id, version)
	aead.Seal(scratch[:0], iv[:], zeroPage[:], hdr[:])
}

// unsealPage is sealPage's inverse: rollback check, then GCM open
// (which verifies the tag over ciphertext, identity and version before
// releasing any plaintext). A compact page's ciphertext is rebuilt
// first, so it goes through the same Open against its stored MAC.
func unsealPage(aead cipher.AEAD, scratch *[mem.PageSize + 16]byte, sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	if sp.Version != expectVersion {
		return ErrRollback
	}
	if sp.Ciphertext == nil {
		sealZero(aead, scratch, sp.ID, sp.Version)
	} else {
		copy(scratch[:], sp.Ciphertext[:])
	}
	copy(scratch[mem.PageSize:], sp.MAC[:])
	iv := nonce(sp.ID, sp.Version)
	hdr := pageHeader(sp.ID, sp.Version)
	if _, err := aead.Open(f.Data[:0], iv[:], scratch[:], hdr[:]); err != nil {
		return ErrMACMismatch
	}
	return nil
}

// Materialize gives a compact sealed page its explicit ciphertext
// bytes, the same bytes a seal that kept them would have stored, so a
// caller can alter them (the chaos injector's bit-flip attack). It is
// a no-op on a page that already has them. It panics on a frozen page:
// that page is shared with other backing stores, and its caller is
// about to write it.
func (e *Engine) Materialize(sp *mem.SealedPage) {
	if sp.Frozen() {
		panic(fmt.Sprintf("mee: Materialize of a frozen sealed page (%v)", sp.ID))
	}
	if sp.Ciphertext != nil {
		return
	}
	var scratch [mem.PageSize + 16]byte
	sealZero(e.pageAEAD(), &scratch, sp.ID, sp.Version)
	ct := new([mem.PageSize]byte)
	copy(ct[:], scratch[:mem.PageSize])
	sp.Ciphertext = ct
}

// sealOverhead is the number of bytes Seal adds to the plaintext: a
// 16-byte IV slot plus a 32-byte MAC.
const sealOverhead = 48

// Seal encrypts arbitrary data under the platform key, binding it to
// the given enclave identity (Appendix E: sealed data "can only be
// unsealed on the same platform" and optionally by the same enclave).
// context must be unique per (enclave, plaintext slot) — e.g. a file
// chunk identifier — so that key streams are never reused.
func (e *Engine) Seal(enclaveID uint32, context uint64, plaintext []byte) []byte {
	out := make([]byte, sealOverhead+len(plaintext))
	iv := out[:aes.BlockSize]
	binary.LittleEndian.PutUint32(iv[0:4], enclaveID)
	binary.LittleEndian.PutUint64(iv[4:12], context)
	iv[12] = 0x5e // domain separator vs page nonces
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err))
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:aes.BlockSize+len(plaintext)], plaintext)
	h := hmac.New(sha256.New, e.macKey[:])
	h.Write(out[:aes.BlockSize+len(plaintext)])
	copy(out[aes.BlockSize+len(plaintext):], h.Sum(nil))
	return out
}

// Unseal reverses Seal, verifying integrity, the enclave binding and
// the context.
func (e *Engine) Unseal(enclaveID uint32, context uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < sealOverhead {
		return nil, ErrMACMismatch
	}
	n := len(sealed) - sealOverhead
	iv := sealed[:aes.BlockSize]
	if binary.LittleEndian.Uint32(iv[0:4]) != enclaveID ||
		binary.LittleEndian.Uint64(iv[4:12]) != context {
		return nil, ErrMACMismatch
	}
	h := hmac.New(sha256.New, e.macKey[:])
	h.Write(sealed[:aes.BlockSize+n])
	if !hmac.Equal(h.Sum(nil), sealed[aes.BlockSize+n:]) {
		return nil, ErrMACMismatch
	}
	out := make([]byte, n)
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err))
	}
	cipher.NewCTR(block, iv).XORKeyStream(out, sealed[aes.BlockSize:aes.BlockSize+n])
	return out, nil
}
