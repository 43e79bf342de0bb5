package libos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

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

// Open opens an existing protected file.
func (p *ProtectedFS) Open(t *sgx.Thread, name string) (osal.Handle, error) {
	meta := p.inst.fs.Raw(pfMetaName(name))
	if meta == nil {
		t.Syscall(0)
		return nil, fmt.Errorf("libos: %q is not a protected file", name)
	}
	size, err := p.readMeta(t, name)
	if err != nil {
		return nil, err
	}
	t.Syscall(uint64(len(name)))
	return &pfHandle{p: p, name: name, size: size}, nil
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

// readMeta loads and unseals the logical-size record.
func (p *ProtectedFS) readMeta(t *sgx.Thread, name string) (int, error) {
	raw := p.inst.fs.Raw(pfMetaName(name))
	t.Syscall(uint64(len(raw)))
	plain, err := p.inst.Env.M.Engine.Unseal(p.inst.Env.Enclave.ID, pfContext(name, -1), raw)
	if err != nil {
		return 0, fmt.Errorf("libos: protected-file metadata of %q: %w", name, err)
	}
	t.Compute(uint64(len(plain)))
	return int(binary.LittleEndian.Uint64(plain)), nil
}

type pfHandle struct {
	p         *ProtectedFS
	name      string
	size      int
	dirty     int // chunks written since the last flusher commit
	metaOps   int // chunks read since the last Merkle-node fetch
	metaDirty int // size growths since the last metadata commit
	closed    bool
}

func (h *pfHandle) Size() int { return h.size }

func (h *pfHandle) writeMeta(t *sgx.Thread) error {
	var plain [8]byte
	binary.LittleEndian.PutUint64(plain[:], uint64(h.size))
	sealed := h.p.inst.Env.M.Engine.Seal(h.p.inst.Env.Enclave.ID, pfContext(h.name, -1), plain[:])
	t.Compute(uint64(len(plain)))
	t.Syscall(uint64(len(sealed)))
	h.p.inst.fs.Create(pfMetaName(h.name), sealed)
	return nil
}

// readChunk unseals chunk ci, returning nil for never-written chunks.
// The caller is responsible for charging the underlying data fetch
// (ReadAt batches one OCALL per application read); readChunk charges
// the per-chunk authentication work.
func (h *pfHandle) readChunk(t *sgx.Thread, ci int) ([]byte, error) {
	raw := h.p.inst.fs.Raw(h.name)
	lo := ci * pfSealed
	if lo >= len(raw) {
		return nil, nil
	}
	hi := lo + pfSealed
	if hi > len(raw) {
		return nil, fmt.Errorf("libos: protected file %q: truncated chunk %d", h.name, ci)
	}
	if isHole(raw[lo : lo+16]) {
		// Never-written chunk inside a sparsely-grown file: the
		// sealed IV region is still zero.
		return nil, nil
	}
	plain, err := h.p.inst.Env.M.Engine.Unseal(h.p.inst.Env.Enclave.ID, pfContext(h.name, ci), raw[lo:hi])
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

// writeChunk seals and stores chunk ci. As with readChunk, the bulk
// data syscall is batched by the caller.
func (h *pfHandle) writeChunk(t *sgx.Thread, ci int, plain []byte) {
	sealed := h.p.inst.Env.M.Engine.Seal(h.p.inst.Env.Enclave.ID, pfContext(h.name, ci), plain)
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
		plain, err := h.readChunk(t, ci)
		if err != nil {
			return done, err
		}
		if plain == nil {
			plain = make([]byte, pfChunk) // sparse hole reads as zeros
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
		var plain []byte
		if chunkOff == 0 && take == pfChunk {
			plain = make([]byte, pfChunk) // full overwrite, no RMW
		} else {
			existing, err := h.readChunk(t, ci)
			if err != nil {
				return done, err
			}
			if existing == nil {
				existing = make([]byte, pfChunk)
			}
			plain = existing
		}
		t.Read(addr+uint64(done), plain[chunkOff:chunkOff+take])
		h.writeChunk(t, ci, plain)
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
