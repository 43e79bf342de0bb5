package mee

import (
	"crypto/cipher"
	"fmt"

	"sgxgauge/internal/mem"
)

// Batch amortizes the per-page crypto setup of the MEE across many
// page operations: the AES key schedule, GHASH subkey and scratch
// (page buffer, nonce and header) are built once and reused for every
// page sealed or unsealed through the batch, so a seal into a reused
// record or an unseal allocates nothing. The output is byte-identical
// to the per-call Engine.SealPage/UnsealPage — only the host-side
// setup cost is shared — so an eviction storm can run its whole
// 16-page EWB batch (and a fault storm its load-backs) through one
// Batch without changing any simulated or cryptographic result.
//
// A Batch is not safe for concurrent use; the EPC drives one from its
// single simulated-machine goroutine.
type Batch struct {
	e       *Engine
	aead    cipher.AEAD
	scratch pageScratch
}

// NewBatch returns a Batch sharing the engine's keys.
func (e *Engine) NewBatch() *Batch {
	return &Batch{e: e, aead: e.pageAEAD()}
}

// SealPageInto is Engine.SealPage through the batch's cached AEAD and
// scratch, into an existing record, which it overwrites; the sealed
// page is byte-identical. The record's ciphertext buffer is reused, so
// resealing a record the backing store handed back
// (mem.BackingStore.Take) allocates nothing. The record must be the
// caller's alone; a frozen one is shared with other stores and panics.
func (b *Batch) SealPageInto(sp *mem.SealedPage, id mem.PageID, version uint64, f *mem.Frame) {
	if sp.Frozen() {
		panic(fmt.Sprintf("mee: SealPageInto a frozen sealed page (%v)", sp.ID))
	}
	sealPageInto(b.aead, &b.scratch, sp, id, version, f)
}

// UnsealPage is Engine.UnsealPage through the batch's cached state:
// identical verification outcome and plaintext.
func (b *Batch) UnsealPage(sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	return unsealPage(b.aead, &b.scratch, sp, expectVersion, f)
}

// SealBatch seals len(ids) pages in one pass, amortizing cipher and
// MAC setup across the whole eviction storm. ids, versions, frames and
// out must have equal length; out[i] receives the sealed page for
// ids[i], byte-identical to SealPage(ids[i], versions[i], frames[i]).
// A non-nil out[i] is reused as the destination (every field
// overwritten); a nil out[i] gets a fresh allocation.
func (e *Engine) SealBatch(ids []mem.PageID, versions []uint64, frames []*mem.Frame, out []*mem.SealedPage) {
	if len(versions) != len(ids) || len(frames) != len(ids) || len(out) != len(ids) {
		panic(fmt.Sprintf("mee: SealBatch length mismatch (%d ids, %d versions, %d frames, %d out)",
			len(ids), len(versions), len(frames), len(out)))
	}
	b := e.NewBatch()
	for i, id := range ids {
		if out[i] == nil {
			out[i] = new(mem.SealedPage)
		}
		b.SealPageInto(out[i], id, versions[i], frames[i])
	}
}

// VerifyBatch decrypts and integrity-checks len(sps) sealed pages in
// one pass (a whole load storm), writing plaintexts into frames. It
// stops at the first failure, returning which page failed and why;
// frames past that index are untouched.
func (e *Engine) VerifyBatch(sps []*mem.SealedPage, expectVersions []uint64, frames []*mem.Frame) error {
	if len(expectVersions) != len(sps) || len(frames) != len(sps) {
		panic(fmt.Sprintf("mee: VerifyBatch length mismatch (%d pages, %d versions, %d frames)",
			len(sps), len(expectVersions), len(frames)))
	}
	b := e.NewBatch()
	for i, sp := range sps {
		if err := b.UnsealPage(sp, expectVersions[i], frames[i]); err != nil {
			return fmt.Errorf("page %v: %w", sp.ID, err)
		}
	}
	return nil
}
