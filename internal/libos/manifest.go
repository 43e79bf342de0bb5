// Package libos implements the GrapheneSGX-like library operating
// system of the paper's LibOS mode: a manifest-driven loader that
// builds a large enclave, measures it, and then runs an unmodified
// application inside it, intercepting its system calls and bridging
// them to the untrusted OS through OCALLs (paper §2.4, §4.4).
package libos

import (
	"crypto/sha256"
	"fmt"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
)

// Manifest describes one application to the LibOS, mirroring the
// Graphene manifest of paper §4.4: "the binary's location, list of
// libraries required, and the required input files", plus enclave
// size, thread count and internal memory.
type Manifest struct {
	// Binary is the application binary path (informational).
	Binary string
	// Libs lists required shared libraries (informational).
	Libs []string
	// Files lists the input files whose hashes the LibOS computes at
	// manifest-processing time and verifies on first open.
	Files []string
	// EnclaveSizePages is the declared enclave size. Zero selects
	// the paper's setting: LibOSEnclaveFactor x the EPC size (the
	// 4 GB enclave of Table 3).
	EnclaveSizePages int
	// Threads is the TCS count (Table 3 uses 16).
	Threads int
	// InternalMemPages is the LibOS-internal memory (Table 3: 64 MB,
	// i.e. ~70% of the EPC); zero selects that default.
	InternalMemPages int
	// ProtectedFiles enables the transparently-encrypting protected
	// file system (paper Appendix E).
	ProtectedFiles bool
}

func (m Manifest) withDefaults(epcPages int) Manifest {
	if m.EnclaveSizePages == 0 {
		m.EnclaveSizePages = sgx.LibOSEnclaveFactor * epcPages
	}
	if m.Threads == 0 {
		m.Threads = 16
	}
	if m.InternalMemPages == 0 {
		m.InternalMemPages = epcPages * 64 / 92 // 64 MB against a 92 MB EPC
	}
	return m
}

// Validate reports manifest errors a Graphene-style loader would
// reject.
func (m Manifest) Validate() error {
	if m.Binary == "" {
		return fmt.Errorf("libos: manifest has no binary")
	}
	if m.EnclaveSizePages < 0 || m.InternalMemPages < 0 || m.Threads < 0 {
		return fmt.Errorf("libos: manifest has negative sizes")
	}
	return nil
}

// hashFile computes the measurement of one input file recorded at
// manifest-processing time ("GrapheneSGX then processes this file and
// calculates the hash of all the required input files, which are then
// verified at the time of the execution", §4.4). It hashes the file
// page by page and returns the digest with the bytes hashed; an absent
// file hashes as empty.
func hashFile(fs *osal.FS, name string) (sum [32]byte, size int) {
	h := sha256.New()
	var page [mem.PageSize]byte
	for {
		n := fs.ReadRaw(name, size, page[:])
		if n == 0 {
			break
		}
		h.Write(page[:n])
		size += n
	}
	h.Sum(sum[:0])
	return sum, size
}

// enclaveImagePages returns how many pages the loader EADDs at launch.
// Graphene loads the entire declared enclave (heap included), which is
// what makes launching a 4 GB enclave cause ~1M EPC evictions through
// a 92 MB EPC (paper §5.4.1).
func (m Manifest) enclaveImagePages() int { return m.EnclaveSizePages }

// enclaveBytes returns the declared enclave size in bytes.
func (m Manifest) enclaveBytes() uint64 {
	return uint64(m.EnclaveSizePages) * mem.PageSize
}
