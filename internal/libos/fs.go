package libos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"sgxgauge/internal/mee"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
)

// ShimFS is the LibOS's default filesystem view: system calls are
// transparently captured, trusted input files are hash-verified on
// first open, and data moves through OCALLs in plaintext ("a naive
// implementation will still write the data in plain text to the file
// system", paper Appendix E).
type ShimFS struct {
	inst *Instance
}

// Open opens a file, verifying its manifest hash if it is listed as a
// trusted input. Files absent from the manifest pass through as
// "allowed" (untrusted) files.
func (s *ShimFS) Open(t *sgx.Thread, name string) (osal.Handle, error) {
	if _, trusted := s.inst.fileHashes[name]; trusted {
		if err := s.inst.verifyOnOpen(t, name); err != nil {
			return nil, err
		}
	}
	return s.inst.fs.Open(t, name)
}

// CreateFile creates an allowed (untrusted, plaintext) output file.
func (s *ShimFS) CreateFile(t *sgx.Thread, name string) (osal.Handle, error) {
	return s.inst.fs.CreateFile(t, name)
}

// Protected file system geometry: data is stored in fixed-size sealed
// chunks of pfChunk plaintext bytes each.
const (
	pfChunk  = 4096
	pfSealed = pfChunk + 48 // mee seal overhead: 16-byte IV + 32-byte MAC
	// pfCryptoChunkCycles is the in-enclave AES-GCM-style cost of
	// sealing or unsealing one chunk (~0.5 cycles/byte with AES-NI).
	pfCryptoChunkCycles = pfChunk / 2
	// pfFlushBatch is how many dirty chunks the PF flusher handles
	// per internal ECALL (drives the ECALL growth of Figure 10c).
	pfFlushBatch = 16
)

// ProtectedFS is the transparently-encrypting protected file system
// (Graphene's "PF" mode, paper Appendix E). File contents on the
// untrusted filesystem are sealed per 4 KiB chunk; reads unseal and
// verify, writes seal. The extra OCALLs, ECALLs and crypto work are
// what make an I/O-intensive application "suffer by up to 98%".
type ProtectedFS struct {
	inst *Instance
}

// pfContext derives the unique seal context for a chunk of a file.
func pfContext(name string, chunk int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(chunk))
	h.Write(b[:])
	return h.Sum64()
}

// isHole reports whether a sealed chunk's IV region is all zero,
// marking a chunk the PF layer never wrote (a valid seal always embeds
// the nonzero enclave ID there).
func isHole(iv []byte) bool {
	for _, b := range iv {
		if b != 0 {
			return false
		}
	}
	return true
}

// pfMetaName is where the PF layer records a file's logical size.
func pfMetaName(name string) string { return name + ".pfmeta" }

// pfMetaSealed is the size of the sealed logical-size record: an
// 8-byte size plus the seal overhead. writeMeta overwrites it in
// place.
const pfMetaSealed = 8 + pfSealed - pfChunk

// Open opens an existing protected file.
func (p *ProtectedFS) Open(t *sgx.Thread, name string) (osal.Handle, error) {
	if p.inst.fs.Size(pfMetaName(name)) < 0 {
		t.Syscall(0)
		return nil, fmt.Errorf("libos: %q is not a protected file", name)
	}
	h := &pfHandle{p: p, name: name}
	if err := h.readMeta(t); err != nil {
		return nil, err
	}
	t.Syscall(uint64(len(name)))
	return h, nil
}

// CreateFile creates (or truncates) a protected file.
func (p *ProtectedFS) CreateFile(t *sgx.Thread, name string) (osal.Handle, error) {
	t.Syscall(uint64(len(name)))
	p.inst.fs.Create(name, nil)
	h := &pfHandle{p: p, name: name, size: 0}
	if err := h.writeMeta(t); err != nil {
		return nil, err
	}
	return h, nil
}

// pfHandle is an open protected file. Sealed chunks move between the
// untrusted FS and the handle's two chunk buffers: sealed holds one
// chunk's ciphertext as stored, plain its plaintext. Every seal and
// unseal writes into them, so steady-state I/O allocates nothing.
type pfHandle struct {
	p         *ProtectedFS
	name      string
	size      int
	dirty     int // chunks written since the last flusher commit
	metaOps   int // chunks read since the last Merkle-node fetch
	metaDirty int // size growths since the last metadata commit
	closed    bool

	sealed [pfSealed]byte
	plain  [pfChunk]byte
}

func (h *pfHandle) Size() int { return h.size }

// readMeta loads and unseals the logical-size record.
func (h *pfHandle) readMeta(t *sgx.Thread) error {
	meta := pfMetaName(h.name)
	size := h.p.inst.fs.Size(meta)
	t.Syscall(uint64(size))
	if size != pfMetaSealed {
		return fmt.Errorf("libos: protected-file metadata of %q: %w", h.name, mee.ErrMACMismatch)
	}
	raw := h.sealed[:pfMetaSealed]
	h.p.inst.fs.ReadRaw(meta, 0, raw)
	plain, err := h.p.inst.Env.M.Engine.Unseal(h.plain[:0], h.p.inst.Env.Enclave.ID, pfContext(h.name, -1), raw)
	if err != nil {
		return fmt.Errorf("libos: protected-file metadata of %q: %w", h.name, err)
	}
	t.Compute(uint64(len(plain)))
	h.size = int(binary.LittleEndian.Uint64(plain))
	return nil
}

// writeMeta seals the logical size and overwrites the size record in
// place.
func (h *pfHandle) writeMeta(t *sgx.Thread) error {
	var plain [8]byte
	binary.LittleEndian.PutUint64(plain[:], uint64(h.size))
	sealed := h.p.inst.Env.M.Engine.Seal(h.sealed[:0], h.p.inst.Env.Enclave.ID, pfContext(h.name, -1), plain[:])
	t.Compute(uint64(len(plain)))
	t.Syscall(uint64(len(sealed)))
	h.p.inst.fs.PatchRaw(pfMetaName(h.name), 0, sealed)
	return nil
}

// readChunk unseals chunk ci into the handle's plain buffer, returning
// nil for never-written chunks. The caller is responsible for
// charging the underlying data fetch (ReadAt batches one OCALL per
// application read); readChunk charges the per-chunk authentication
// work.
func (h *pfHandle) readChunk(t *sgx.Thread, ci int) ([]byte, error) {
	n := h.p.inst.fs.ReadRaw(h.name, ci*pfSealed, h.sealed[:])
	if n == 0 {
		return nil, nil
	}
	if n < pfSealed {
		return nil, fmt.Errorf("libos: protected file %q: truncated chunk %d", h.name, ci)
	}
	if isHole(h.sealed[:16]) {
		// Never-written chunk inside a sparsely-grown file: the
		// sealed IV region is still zero.
		return nil, nil
	}
	plain, err := h.p.inst.Env.M.Engine.Unseal(h.plain[:0], h.p.inst.Env.Enclave.ID, pfContext(h.name, ci), h.sealed[:])
	if err != nil {
		return nil, fmt.Errorf("libos: protected file %q chunk %d: %w", h.name, ci, err)
	}
	t.Compute(pfCryptoChunkCycles)
	h.metaOps++
	if h.metaOps >= pfFlushBatch {
		h.metaOps = 0
		// Merkle-tree nodes are cached in enclave memory; refreshing
		// one is shim-internal work.
		t.SyscallInternal(64)
	}
	return plain, nil
}

// chunk returns the plaintext of chunk ci in the handle's plain
// buffer, zeros for a never-written chunk.
func (h *pfHandle) chunk(t *sgx.Thread, ci int) ([]byte, error) {
	plain, err := h.readChunk(t, ci)
	if err != nil || plain != nil {
		return plain, err
	}
	clear(h.plain[:])
	return h.plain[:], nil
}

// writeChunk seals the handle's plain buffer as chunk ci and stores
// it. As with readChunk, the bulk data syscall is batched by the
// caller.
func (h *pfHandle) writeChunk(t *sgx.Thread, ci int) {
	sealed := h.p.inst.Env.M.Engine.Seal(h.sealed[:0], h.p.inst.Env.Enclave.ID, pfContext(h.name, ci), h.plain[:])
	t.Compute(pfCryptoChunkCycles)
	h.p.inst.fs.PatchRaw(h.name, ci*pfSealed, sealed)
	h.dirty++
	if h.dirty >= pfFlushBatch {
		h.dirty = 0
		t.Syscall(64) // Merkle-tree node update
		// The PF flusher re-enters the enclave to commit the
		// updated tree root (Figure 10c's ECALL growth).
		t.RuntimeECall(func() {})
	}
}

func (h *pfHandle) ReadAt(t *sgx.Thread, addr uint64, off, n int) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("libos: read on closed protected file %q", h.name)
	}
	if off < 0 || n < 0 {
		t.Syscall(0) // the rejected read still costs a syscall
		return 0, fmt.Errorf("libos: read of protected file %q at offset %d, length %d", h.name, off, n)
	}
	if off >= h.size {
		t.Syscall(0)
		return 0, nil
	}
	if off+n > h.size {
		n = h.size - off
	}
	// One OCALL fetches the sealed extent covering the whole read.
	t.Syscall(uint64((n/pfChunk + 1) * pfSealed))
	done := 0
	for done < n {
		ci := (off + done) / pfChunk
		chunkOff := (off + done) % pfChunk
		take := pfChunk - chunkOff
		if take > n-done {
			take = n - done
		}
		plain, err := h.chunk(t, ci) // a sparse hole reads as zeros
		if err != nil {
			return done, err
		}
		t.Write(addr+uint64(done), plain[chunkOff:chunkOff+take])
		done += take
	}
	return done, nil
}

func (h *pfHandle) WriteAt(t *sgx.Thread, addr uint64, off, n int) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("libos: write on closed protected file %q", h.name)
	}
	if off < 0 || n < 0 {
		t.Syscall(0) // the rejected write still costs a syscall
		return 0, fmt.Errorf("libos: write of protected file %q at offset %d, length %d", h.name, off, n)
	}
	// One OCALL stores the sealed extent covering the whole write.
	t.Syscall(uint64((n/pfChunk + 1) * pfSealed))
	done := 0
	for done < n {
		ci := (off + done) / pfChunk
		chunkOff := (off + done) % pfChunk
		take := pfChunk - chunkOff
		if take > n-done {
			take = n - done
		}
		// A full overwrite needs no read-modify-write: the read
		// below fills the whole plain buffer.
		if take < pfChunk {
			if _, err := h.chunk(t, ci); err != nil {
				return done, err
			}
		}
		t.Read(addr+uint64(done), h.plain[chunkOff:chunkOff+take])
		h.writeChunk(t, ci)
		done += take
	}
	if off+n > h.size {
		h.size = off + n
		h.metaDirty++
		// The size record is committed lazily (every few growth
		// steps and at close), like a buffered inode update.
		if h.metaDirty >= pfFlushBatch {
			h.metaDirty = 0
			if err := h.writeMeta(t); err != nil {
				return done, err
			}
		}
	}
	return n, nil
}

func (h *pfHandle) Close(t *sgx.Thread) error {
	if h.closed {
		return fmt.Errorf("libos: double close of protected file %q", h.name)
	}
	h.closed = true
	if err := h.writeMeta(t); err != nil {
		return err
	}
	t.Syscall(0)
	return nil
}
