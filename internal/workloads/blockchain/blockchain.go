// Package blockchain implements the Blockchain workload of SGXGauge
// (§4.2.1), modeled on libcatena: a linked list of blocks where each
// block stores the hash of its predecessor, extended by proof-of-work
// mining. The SHA-256 hash computation is the sensitive operation and
// lives inside the enclave; many untrusted threads call it through the
// same ECALL, making this the suite's CPU/ECALL-intensive workload
// (with ~millions of ECALLs at paper scale, Appendix B.1).
package blockchain

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

const (
	// payloadBytes is each block's payload size.
	payloadBytes = 16 * 1024
	// hashedPayload is how much of the payload each proof-of-work
	// attempt hashes along with the header.
	hashedPayload = 1024
	// hashCyclesPerByte approximates SHA-256 throughput in-enclave.
	hashCyclesPerByte = 15
	// defaultDifficultyBits sets the expected attempts per block to
	// 2^bits; the paper's millions of ECALLs per block are scaled
	// down proportionally with everything else.
	defaultDifficultyBits = 9
	// defaultThreads matches the paper's 16 mining threads.
	defaultThreads = 16
)

// Workload is the Blockchain benchmark.
type Workload struct{}

// New returns the workload.
func New() *Workload { return &Workload{} }

// Name implements workloads.Workload.
func (*Workload) Name() string { return "Blockchain" }

// Property implements workloads.Workload.
func (*Workload) Property() string { return "CPU/ECALL-intensive" }

// NativePort implements workloads.Workload; only the hash function is
// moved into the enclave (§4.3).
func (*Workload) NativePort() bool { return true }

// blockCounts mirrors Table 2: 3/5/8 blocks. The workload's memory
// footprint is tiny by design; its cost is compute and transitions.
var blockCounts = map[workloads.Size]int64{
	workloads.Low:    3,
	workloads.Medium: 5,
	workloads.High:   8,
}

// DefaultParams implements workloads.Workload.
func (*Workload) DefaultParams(epcPages int, s workloads.Size) workloads.Params {
	return workloads.Params{
		Size:    s,
		Threads: defaultThreads,
		Knobs: map[string]int64{
			"blocks":          blockCounts[s],
			"difficulty_bits": defaultDifficultyBits,
		},
	}
}

// FootprintPages implements workloads.Workload.
func (*Workload) FootprintPages(p workloads.Params) (int, error) {
	blocks, err := p.Knob("blocks")
	if err != nil {
		return 0, err
	}
	return int(blocks*payloadBytes/mem.PageSize) + 4, nil
}

// Setup implements workloads.Workload.
func (*Workload) Setup(ctx *workloads.Ctx) error { return nil }

// header is the 72-byte mining preimage prefix: previous-block hash
// plus payload digest; the 8-byte nonce follows.
type header struct {
	prev    [32]byte
	payload [32]byte
}

// attempt is one miner's proof-of-work input, laid out as it is
// hashed: previous block hash, payload digest, nonce, then the payload
// sample. Each miner fills one in place for every attempt, so hashing
// allocates nothing.
type attempt [72 + hashedPayload]byte

// sample is where the miner reads the hashed payload prefix.
func (a *attempt) sample() []byte { return a[72:] }

// hash computes the proof-of-work hash for one nonce over the sample
// already in a. The simulated cost is charged by the caller.
func (a *attempt) hash(h header, nonce uint64) [32]byte {
	copy(a[0:32], h.prev[:])
	copy(a[32:64], h.payload[:])
	binary.LittleEndian.PutUint64(a[64:72], nonce)
	return sha256.Sum256(a[:])
}

// Run implements workloads.Workload.
func (w *Workload) Run(ctx *workloads.Ctx) (workloads.Output, error) {
	p := ctx.Params
	blocks, err := p.Knob("blocks")
	if err != nil {
		return workloads.Output{}, err
	}
	bits, err := p.Knob("difficulty_bits")
	if err != nil {
		return workloads.Output{}, err
	}
	if blocks <= 0 || bits < 0 || bits > 40 {
		return workloads.Output{}, fmt.Errorf("blockchain: invalid blocks=%d difficulty_bits=%d", blocks, bits)
	}
	threads := p.Threads
	if threads <= 0 {
		threads = defaultThreads
	}
	target := ^uint64(0) >> uint(bits)

	env := ctx.Env
	// The chain lives in the application's memory: untrusted in
	// Vanilla/Native mode (only the hash runs inside the enclave),
	// enclave heap in LibOS mode (the whole app is inside).
	var chain uint64
	if env.Mode == sgx.LibOS {
		chain, err = env.Alloc(uint64(blocks)*payloadBytes, mem.PageSize)
	} else {
		chain = env.AllocUntrusted(uint64(blocks)*payloadBytes, mem.PageSize)
	}
	if err != nil {
		return workloads.Output{}, fmt.Errorf("blockchain: alloc chain: %w", err)
	}

	var prevHash [32]byte
	var totalAttempts int64
	var checksum uint64
	var nonces []uint64
	var digests, hashes [][32]byte
	main := env.Main
	// Host-side buffers reused by every block: the payload read for
	// its digest and one attempt per mining thread.
	full := make([]byte, payloadBytes)
	miners := make([]attempt, threads)

	for b := int64(0); b < blocks; b++ {
		// Write the block payload (deterministic content).
		payloadAddr := chain + uint64(b)*payloadBytes
		var buf [256]byte
		seed := workloads.Mix64(uint64(ctx.Seed) ^ uint64(b))
		for off := 0; off < payloadBytes; off += len(buf) {
			for i := 0; i < len(buf); i += 8 {
				seed = workloads.Mix64(seed)
				binary.LittleEndian.PutUint64(buf[i:], seed)
			}
			main.Write(payloadAddr+uint64(off), buf[:])
		}
		// Digest the payload once (inside the enclave: it is the
		// sensitive computation).
		var payloadDigest [32]byte
		main.ECall(func() {
			main.Read(payloadAddr, full)
			main.Compute(uint64(payloadBytes) * hashCyclesPerByte)
			payloadDigest = sha256.Sum256(full)
		})

		hdr := header{prev: prevHash, payload: payloadDigest}

		// Mine: `threads` untrusted threads race through disjoint
		// nonce strides, each attempt entering the enclave through
		// the shared hash ECALL. A thread stops once some thread has
		// found a winner at an earlier attempt index (all real
		// threads would have stopped by then).
		bestIdx := int64(1) << 62
		var bestNonce uint64
		var bestHash [32]byte
		env.RunParallel(threads, func(t *sgx.Thread, ti int) {
			a := &miners[ti]
			for idx := int64(0); idx <= bestIdx; idx++ {
				nonce := uint64(idx)*uint64(threads) + uint64(ti)
				var hv [32]byte
				t.ECall(func() {
					t.Read(payloadAddr, a.sample())
					t.Compute(uint64(72+8+hashedPayload) * hashCyclesPerByte)
					hv = a.hash(hdr, nonce)
				})
				totalAttempts++
				if binary.BigEndian.Uint64(hv[:8]) <= target {
					if idx < bestIdx || (idx == bestIdx && nonce < bestNonce) {
						bestIdx = idx
						bestNonce = nonce
						bestHash = hv
					}
					return
				}
			}
		})
		if bestIdx == int64(1)<<62 {
			return workloads.Output{}, fmt.Errorf("blockchain: block %d: no nonce found (difficulty too high for stride)", b)
		}
		prevHash = bestHash
		nonces = append(nonces, bestNonce)
		digests = append(digests, payloadDigest)
		hashes = append(hashes, bestHash)
		checksum = workloads.FoldChecksum(checksum, bestNonce)
	}
	checksum = workloads.FoldChecksum(checksum, binary.LittleEndian.Uint64(prevHash[:8]))

	// Verification pass (libcatena validates the whole chain): walk
	// the blocks inside the enclave, recompute each proof-of-work
	// hash over the stored payload, and check the chain links and
	// difficulty.
	var verifyErr error
	main.ECall(func() {
		var prev [32]byte
		a := &miners[0]
		for b := int64(0); b < blocks; b++ {
			main.Read(chain+uint64(b)*payloadBytes, a.sample())
			main.Compute(uint64(72+8+hashedPayload) * hashCyclesPerByte)
			hv := a.hash(header{prev: prev, payload: digests[b]}, nonces[b])
			if hv != hashes[b] {
				verifyErr = fmt.Errorf("blockchain: block %d hash mismatch during verification", b)
				return
			}
			if binary.BigEndian.Uint64(hv[:8]) > target {
				verifyErr = fmt.Errorf("blockchain: block %d does not meet difficulty", b)
				return
			}
			prev = hv
		}
	})
	if verifyErr != nil {
		return workloads.Output{}, verifyErr
	}

	return workloads.Output{
		Checksum: checksum,
		Ops:      totalAttempts,
		Extra:    map[string]float64{"attempts": float64(totalAttempts)},
	}, nil
}

var _ workloads.Workload = (*Workload)(nil)
