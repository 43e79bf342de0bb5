// Package openssl implements the OpenSSL workload of SGXGauge
// (§4.2.2), modeled on Intel SGX-SSL usage: the workload reads an
// encrypted input file into the enclave, decrypts it there, performs a
// small compute task over the plaintext, re-encrypts the result and
// writes it back to the untrusted filesystem. When the file exceeds
// the EPC size the in-enclave buffers stress the paging machinery.
package openssl

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/workloads"
)

const (
	inputFile  = "openssl.in"
	outputFile = "openssl.out"
	// chunk is the streaming I/O unit.
	chunk = 64 * 1024
	// aesCyclesPerByte approximates in-enclave AES-CTR throughput.
	aesCyclesPerByte = 1
)

// chunks recycles the 64 KiB host-side buffers Setup and Run stage
// each chunk through, across runs. Every use writes the bytes it then
// reads, so which buffer comes back never reaches a file or the
// simulation.
var chunks = sync.Pool{New: func() any { return new([chunk]byte) }}

// Workload is the OpenSSL benchmark.
type Workload struct{}

// New returns the workload.
func New() *Workload { return &Workload{} }

// Name implements workloads.Workload.
func (*Workload) Name() string { return "OpenSSL" }

// Property implements workloads.Workload.
func (*Workload) Property() string { return "Data-intensive" }

// NativePort implements workloads.Workload.
func (*Workload) NativePort() bool { return true }

// footprintRatios mirrors Table 2's 76/88/151 MB files against the
// 92 MB EPC.
var footprintRatios = map[workloads.Size]float64{
	workloads.Low:    0.83,
	workloads.Medium: 0.96,
	workloads.High:   1.64,
}

// DefaultParams implements workloads.Workload.
func (*Workload) DefaultParams(epcPages int, s workloads.Size) workloads.Params {
	return workloads.Params{
		Size:    s,
		Threads: 1,
		Knobs: map[string]int64{
			"file_bytes": workloads.BytesForRatio(epcPages, footprintRatios[s]),
		},
	}
}

// FootprintPages implements workloads.Workload; the whole file is
// buffered in the enclave and transformed in place.
func (*Workload) FootprintPages(p workloads.Params) (int, error) {
	n, err := p.Knob("file_bytes")
	if err != nil {
		return 0, err
	}
	return int(n/mem.PageSize) + 2, nil
}

// key returns the workload's AES key, derived from the seed.
func key(seed int64) []byte {
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("openssl-wl"), uint64(seed)))
	return sum[:16]
}

// ctr returns an AES-CTR stream for the given nonce word.
func ctr(k []byte, nonce uint64) cipher.Stream {
	block, err := aes.NewCipher(k)
	if err != nil {
		panic(fmt.Sprintf("openssl: aes init: %v", err))
	}
	var iv [16]byte
	binary.LittleEndian.PutUint64(iv[:8], nonce)
	return cipher.NewCTR(block, iv[:])
}

// Setup implements workloads.Workload: it creates the encrypted input
// file host-side.
func (w *Workload) Setup(ctx *workloads.Ctx) error {
	n, err := ctx.Params.Knob("file_bytes")
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("openssl: file_bytes must be positive, got %d", n)
	}
	// Generate the plaintext and encrypt it chunk by chunk in place
	// (CTR mode allows exactly overlapping src and dst): the word
	// sequence and the key stream both continue across chunks, so the
	// file holds the same bytes as one pass over the whole file.
	ctx.RawFS.Create(inputFile, nil)
	stream := ctr(key(ctx.Seed), 1)
	buf := chunks.Get().(*[chunk]byte)
	defer chunks.Put(buf)
	seed := workloads.Mix64(uint64(ctx.Seed))
	for off := int64(0); off < n; off += chunk {
		enc := buf[:min(chunk, n-off)]
		words := len(enc) &^ 7
		for i := 0; i < words; i += 8 {
			seed = workloads.Mix64(seed)
			binary.LittleEndian.PutUint64(enc[i:], seed)
		}
		clear(enc[words:]) // a trailing partial word is zero
		stream.XORKeyStream(enc, enc)
		ctx.RawFS.PatchRaw(inputFile, int(off), enc)
	}
	ctx.RawFS.Remove(outputFile)
	return nil
}

// Run implements workloads.Workload.
func (w *Workload) Run(ctx *workloads.Ctx) (workloads.Output, error) {
	n, err := ctx.Params.Knob("file_bytes")
	if err != nil {
		return workloads.Output{}, err
	}
	env := ctx.Env
	t := env.Main

	buf, err := env.Alloc(uint64(n), mem.PageSize)
	if err != nil {
		return workloads.Output{}, fmt.Errorf("openssl: alloc file buffer: %w", err)
	}

	in, err := ctx.FS.Open(t, inputFile)
	if err != nil {
		return workloads.Output{}, fmt.Errorf("openssl: %w", err)
	}
	// Phase 1: read the encrypted file into the enclave buffer.
	var readErr error
	t.ECall(func() {
		for off := int64(0); off < n; off += chunk {
			want := int64(chunk)
			if n-off < want {
				want = n - off
			}
			if _, err := in.ReadAt(t, buf+uint64(off), int(off), int(want)); err != nil {
				readErr = err
				return
			}
		}
	})
	if readErr != nil {
		return workloads.Output{}, fmt.Errorf("openssl: reading input: %w", readErr)
	}
	if err := in.Close(t); err != nil {
		return workloads.Output{}, err
	}

	k := key(ctx.Seed)
	var checksum uint64
	var wordSum uint64
	// Phases 2 and 4 stage each chunk through one host-side buffer.
	scratch := chunks.Get().(*[chunk]byte)
	defer chunks.Put(scratch)
	// Phase 2+3: decrypt in place inside the enclave, then run the
	// compute task (a rolling sum over the plaintext words).
	t.ECall(func() {
		dec := ctr(k, 1)
		for off := int64(0); off < n; off += chunk {
			m := int64(chunk)
			if n-off < m {
				m = n - off
			}
			t.Read(buf+uint64(off), scratch[:m])
			dec.XORKeyStream(scratch[:m], scratch[:m])
			t.Compute(uint64(m) * aesCyclesPerByte)
			t.Write(buf+uint64(off), scratch[:m])
		}
		for off := int64(0); off+8 <= n; off += 64 {
			wordSum += t.ReadU64(buf + uint64(off))
		}
		checksum = workloads.FoldChecksum(checksum, wordSum)
	})

	// Phase 4: re-encrypt (fresh nonce) and write the output file.
	out, err := ctx.FS.CreateFile(t, outputFile)
	if err != nil {
		return workloads.Output{}, fmt.Errorf("openssl: %w", err)
	}
	var writeErr error
	t.ECall(func() {
		enc := ctr(k, 2)
		for off := int64(0); off < n; off += chunk {
			m := int64(chunk)
			if n-off < m {
				m = n - off
			}
			t.Read(buf+uint64(off), scratch[:m])
			enc.XORKeyStream(scratch[:m], scratch[:m])
			t.Compute(uint64(m) * aesCyclesPerByte)
			t.Write(buf+uint64(off), scratch[:m])
			if _, err := out.WriteAt(t, buf+uint64(off), int(off), int(m)); err != nil {
				writeErr = err
				return
			}
		}
	})
	if writeErr != nil {
		return workloads.Output{}, fmt.Errorf("openssl: writing output: %w", writeErr)
	}
	if err := out.Close(t); err != nil {
		return workloads.Output{}, err
	}

	return workloads.Output{
		Checksum: checksum,
		Ops:      n / chunk,
		Extra:    map[string]float64{"bytes": float64(n)},
	}, nil
}

var _ workloads.Workload = (*Workload)(nil)
