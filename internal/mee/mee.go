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
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

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
// safe for concurrent use after construction: the key material and
// the expanded AES key are immutable, and each Seal or Unseal takes an
// HMAC state of its own from a pool.
type Engine struct {
	encKey [16]byte
	macKey [32]byte
	block  cipher.Block // AES under encKey; safe for concurrent use
	macs   sync.Pool    // of hash.Hash: HMAC-SHA-256 under macKey
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
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err)) // key length is fixed; cannot happen
	}
	e.block = block
	e.macs.New = func() any { return hmac.New(sha256.New, e.macKey[:]) }
	return &e
}

// mac appends the HMAC-SHA-256 of data under the MAC key to dst.
func (e *Engine) mac(dst []byte, data []byte) []byte {
	h := e.macs.Get().(hash.Hash)
	h.Reset()
	h.Write(data)
	dst = h.Sum(dst)
	e.macs.Put(h)
	return dst
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
	aead, err := cipher.NewGCMWithNonceSize(e.block, aes.BlockSize)
	if err != nil {
		panic(fmt.Sprintf("mee: gcm init: %v", err)) // nonce size is fixed; cannot happen
	}
	return aead
}

// SealPage encrypts and MACs one page frame for eviction to untrusted
// memory. The version must be the page's next (monotonically
// increasing) version number.
func (e *Engine) SealPage(id mem.PageID, version uint64, f *mem.Frame) *mem.SealedPage {
	sp := &mem.SealedPage{}
	sealPageInto(e.pageAEAD(), new(pageScratch), sp, id, version, f)
	return sp
}

// UnsealPage decrypts sp into f after verifying its MAC and checking
// that its version matches expectVersion (freshness).
func (e *Engine) UnsealPage(sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	return unsealPage(e.pageAEAD(), new(pageScratch), sp, expectVersion, f)
}

// pageScratch is the working memory of one page seal or open: the
// ciphertext ∥ tag buffer and the nonce and header the AEAD reads.
// Slices of all three pass through the cipher.AEAD interface, so each
// would escape to the heap if it were a local; Batch keeps one
// pageScratch for every page it handles, the engine's per-call path
// allocates one. The output depends only on the keys and inputs, so
// both produce byte-identical sealed pages.
type pageScratch struct {
	buf [mem.PageSize + 16]byte
	iv  [aes.BlockSize]byte
	hdr [20]byte
}

// bind sets the scratch's nonce and header for (id, version).
func (s *pageScratch) bind(id mem.PageID, version uint64) {
	s.iv = nonce(id, version)
	s.hdr = pageHeader(id, version)
}

// zeroPage is the all-zero plaintext whose seal is a compact page's
// ciphertext. Read-only.
var zeroPage [mem.PageSize]byte

// sealPageInto runs one GCM seal into the scratch buffer (ciphertext ∥
// tag) and stores it in a caller-provided SealedPage, overwriting
// every field and reusing the destination's ciphertext buffer when it
// has one; otherwise the buffer comes from the page recycler
// (mem.NewFrame). Every page gets the full GCM seal and keeps its MAC;
// an all-zero page keeps no ciphertext (a compact page, see
// mem.SealedPage), since unsealPage can regenerate it from the nonce,
// and a buffer the destination held goes back to the recycler.
func sealPageInto(aead cipher.AEAD, s *pageScratch, sp *mem.SealedPage, id mem.PageID, version uint64, f *mem.Frame) {
	sp.ID = id
	sp.Version = version
	s.bind(id, version)
	out := aead.Seal(s.buf[:0], s.iv[:], f.Data[:], s.hdr[:])
	copy(sp.MAC[:], out[mem.PageSize:])
	if f.Data == zeroPage {
		if sp.Ciphertext != nil {
			mem.FreeFrame(sp.Ciphertext)
			sp.Ciphertext = nil
		}
		return
	}
	if sp.Ciphertext == nil {
		sp.Ciphertext = mem.NewFrame()
	}
	copy(sp.Ciphertext.Data[:], out[:mem.PageSize])
}

// sealZero writes the ciphertext ∥ tag of the all-zero page sealed as
// (id, version) into the scratch buffer: a compact page's ciphertext
// and the tag an untampered one carries.
func sealZero(aead cipher.AEAD, s *pageScratch, id mem.PageID, version uint64) {
	s.bind(id, version)
	aead.Seal(s.buf[:0], s.iv[:], zeroPage[:], s.hdr[:])
}

// unsealPage is sealPageInto's inverse: rollback check, then GCM open
// (which verifies the tag over ciphertext, identity and version before
// releasing any plaintext). A compact page takes one GCM pass instead
// of two: its ciphertext is the zero page's seal under the stored
// nonce and header, so Open would accept exactly when the tag of that
// seal equals the stored MAC, and the plaintext it would release is
// the zero page. On a mismatch f is left as it was.
func unsealPage(aead cipher.AEAD, s *pageScratch, sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	if sp.Version != expectVersion {
		return ErrRollback
	}
	if sp.Ciphertext == nil {
		sealZero(aead, s, sp.ID, sp.Version)
		if subtle.ConstantTimeCompare(s.buf[mem.PageSize:], sp.MAC[:]) != 1 {
			return ErrMACMismatch
		}
		f.Data = zeroPage
		return nil
	}
	copy(s.buf[:], sp.Ciphertext.Data[:])
	copy(s.buf[mem.PageSize:], sp.MAC[:])
	s.bind(sp.ID, sp.Version)
	if _, err := aead.Open(f.Data[:0], s.iv[:], s.buf[:], s.hdr[:]); err != nil {
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
	s := new(pageScratch)
	sealZero(e.pageAEAD(), s, sp.ID, sp.Version)
	sp.Ciphertext = mem.NewFrame()
	copy(sp.Ciphertext.Data[:], s.buf[:mem.PageSize])
}

// sealOverhead is the number of bytes Seal adds to the plaintext: a
// 16-byte IV slot plus a 32-byte MAC.
const sealOverhead = 48

// Seal encrypts arbitrary data under the platform key, binding it to
// the given enclave identity (Appendix E: sealed data "can only be
// unsealed on the same platform" and optionally by the same enclave).
// context must be unique per (enclave, plaintext slot) — e.g. a file
// chunk identifier — so that key streams are never reused. As with
// cipher.AEAD, the sealed blob (sealOverhead bytes more than the
// plaintext) is appended to dst and the extended slice returned, so a
// caller that passes a buffer with room seals without allocating;
// dst's spare room must not overlap plaintext.
func (e *Engine) Seal(dst []byte, enclaveID uint32, context uint64, plaintext []byte) []byte {
	ret, out := sliceForAppend(dst, sealOverhead+len(plaintext))
	iv := out[:aes.BlockSize]
	clear(iv)
	binary.LittleEndian.PutUint32(iv[0:4], enclaveID)
	binary.LittleEndian.PutUint64(iv[4:12], context)
	iv[12] = 0x5e // domain separator vs page nonces
	cipher.NewCTR(e.block, iv).XORKeyStream(out[aes.BlockSize:aes.BlockSize+len(plaintext)], plaintext)
	e.mac(out[:aes.BlockSize+len(plaintext)], out[:aes.BlockSize+len(plaintext)])
	return ret
}

// Unseal reverses Seal, verifying integrity, the enclave binding and
// the context. As with cipher.AEAD, the plaintext is appended to dst
// and the extended slice returned; dst's spare room must not overlap
// sealed. On an error dst is returned unchanged in length.
func (e *Engine) Unseal(dst []byte, enclaveID uint32, context uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < sealOverhead {
		return dst, ErrMACMismatch
	}
	n := len(sealed) - sealOverhead
	iv := sealed[:aes.BlockSize]
	if binary.LittleEndian.Uint32(iv[0:4]) != enclaveID ||
		binary.LittleEndian.Uint64(iv[4:12]) != context {
		return dst, ErrMACMismatch
	}
	var mac [sha256.Size]byte
	if !hmac.Equal(e.mac(mac[:0], sealed[:aes.BlockSize+n]), sealed[aes.BlockSize+n:]) {
		return dst, ErrMACMismatch
	}
	ret, out := sliceForAppend(dst, n)
	cipher.NewCTR(e.block, iv).XORKeyStream(out, sealed[aes.BlockSize:aes.BlockSize+n])
	return ret, nil
}

// sliceForAppend extends in by n bytes, reallocating only when its
// capacity is short, and returns the whole slice and the n-byte tail
// (the idiom of the standard library's AEADs).
func sliceForAppend(in []byte, n int) (head, tail []byte) {
	if total := len(in) + n; cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	return head, head[len(in):]
}
