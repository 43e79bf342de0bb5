package libos

import (
	"crypto/subtle"
	"fmt"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

// Init-phase transition counts for an empty workload, calibrated to
// Figure 6a of the paper: "GrapheneSGX performs ~300 ECALLs, ~1000
// OCALLs, and ~1000 AEX exits" while initializing.
const (
	initECalls = 300
	initOCalls = 1000
	// initAEXs covers the interrupt-driven exits during init; the
	// loader's post-measurement working-set faults contribute the
	// remaining loaderPages AEXs, totalling ~1000.
	initAEXs = 1000 - loaderPages
)

// loaderPages is the LibOS's own in-enclave footprint (runtime code,
// loader state); the rest of the measured enclave is application heap.
const loaderPages = 128

// Instance is one running LibOS (one enclave hosting one unmodified
// application).
type Instance struct {
	// Env is the LibOS-mode environment the application runs in.
	Env *sgx.Env
	// Manifest is the effective (defaulted) manifest.
	Manifest Manifest

	fs         *osal.FS
	fileHashes map[string][32]byte
	verified   map[string]bool

	// StartupCycles is the main-thread cycle cost of initializing
	// the LibOS, which the paper excludes from workload run time
	// (Appendix D).
	StartupCycles uint64
	// StartupCounters snapshots the machine counters right after
	// initialization; harnesses measure workloads from this baseline.
	StartupCounters perf.Snapshot
}

// Start boots a LibOS instance on the machine: it processes the
// manifest (hashing the input files), builds and measures the full
// enclave, performs the loader's init-phase transitions, and leaves
// the application permanently inside the enclave.
func Start(m *sgx.Machine, fs *osal.FS, man Manifest) (*Instance, error) {
	return StartWithTimeline(m, fs, man, 0)
}

// StartWithTimeline is Start with EPC activity sampling enabled from
// before the enclave build, so the launch-time eviction storm is
// captured (Figure 9). timelineEvery = 0 disables sampling.
func StartWithTimeline(m *sgx.Machine, fs *osal.FS, man Manifest, timelineEvery uint64) (*Instance, error) {
	inst, err := load(fs, man, m.Config().EPCPages)
	if err != nil {
		return nil, err
	}
	man = inst.Manifest

	env := m.NewEnv(sgx.LibOS)
	inst.Env = env
	if timelineEvery > 0 {
		m.EPC.EnableTimeline(&env.Main.Clock, timelineEvery)
	}

	// Build the enclave. Graphene EADDs the entire declared enclave
	// so SGX can measure it, producing the launch-time eviction storm
	// of Figure 6a when the enclave exceeds the EPC — but only the
	// loader's own footprint is reserved; the rest becomes the
	// application heap.
	if _, err := env.LaunchEnclaveReserve(man.enclaveImagePages(), loaderPages, man.EnclaveSizePages); err != nil {
		return nil, fmt.Errorf("libos: building enclave: %w", err)
	}

	// Loader init: the ECALL/OCALL/AEX activity Figure 6a reports for
	// an empty workload. The OCALLs load libraries and set up the
	// environment; the AEXs are interrupts taken during the long
	// build.
	t := env.Main
	for i := 0; i < initECalls; i++ {
		t.RuntimeECall(func() {})
	}
	t.RuntimeECall(func() {
		for i := 0; i < initOCalls; i++ {
			t.RuntimeOCall(func() {
				t.Clock.Advance(m.Costs.SyscallDirect)
			})
		}
		for i := 0; i < initAEXs; i++ {
			t.RuntimeAEX()
		}
	})

	// From here on the unmodified application executes inside the
	// enclave.
	env.EnterPermanently()

	// The runtime touches its own working set, which the measurement
	// sweep evicted — the small number of pages "loaded back" out of
	// the ~1M evicted that Figure 6a reports.
	for i := 0; i < loaderPages; i++ {
		t.ReadU64(env.Enclave.Base + uint64(i)*mem.PageSize)
	}

	inst.StartupCycles = env.Elapsed()
	inst.StartupCounters = env.Snapshot()
	return inst, nil
}

// load performs manifest processing: it validates and defaults the
// manifest for an EPC of epcPages pages and hashes every trusted
// input file. The returned instance has no environment yet.
func load(fs *osal.FS, man Manifest, epcPages int) (*Instance, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	man = man.withDefaults(epcPages)
	inst := &Instance{
		Manifest:   man,
		fs:         fs,
		fileHashes: make(map[string][32]byte, len(man.Files)),
		verified:   make(map[string]bool, len(man.Files)),
	}
	for _, name := range man.Files {
		data := fs.Raw(name)
		if data == nil {
			return nil, fmt.Errorf("libos: manifest file %q not found", name)
		}
		inst.fileHashes[name] = hashFile(data)
	}
	return inst, nil
}

// Clone starts the application of man over fs on a copy of inst's
// booted machine instead of booting a fresh one. The boot reads only
// the machine configuration and the enclave size, so when those match
// the result is identical to Start with man on a fresh machine —
// manifest processing (file hashing and its errors) still runs for
// man, before the copy. Clone only reads inst: one booted instance
// serves as the template for any number of concurrent Clones, as long
// as nothing runs on it.
func (inst *Instance) Clone(fs *osal.FS, man Manifest) (*Instance, error) {
	c, err := load(fs, man, inst.Env.M.Config().EPCPages)
	if err != nil {
		return nil, err
	}
	if c.Manifest.EnclaveSizePages != inst.Manifest.EnclaveSizePages {
		return nil, fmt.Errorf("libos: clone needs a %d-page enclave, template booted %d",
			c.Manifest.EnclaveSizePages, inst.Manifest.EnclaveSizePages)
	}
	c.Env = inst.Env.Clone()
	c.StartupCycles = inst.StartupCycles
	c.StartupCounters = inst.StartupCounters
	return c, nil
}

// EnclavePages returns the enclave size a boot of man on an EPC of
// epcPages pages builds: the only manifest field the boot reads.
func (m Manifest) EnclavePages(epcPages int) int {
	return m.withDefaults(epcPages).EnclaveSizePages
}

// VerifyOnOpen checks a trusted file's hash the first time it is
// opened, charging the in-enclave hashing cost. It returns an error
// when the file was tampered with after manifest processing, or when
// the file is not listed in the manifest at all.
func (inst *Instance) verifyOnOpen(t *sgx.Thread, name string) error {
	want, ok := inst.fileHashes[name]
	if !ok {
		return fmt.Errorf("libos: %q is not a trusted file in the manifest", name)
	}
	if inst.verified[name] {
		return nil
	}
	data := inst.fs.Raw(name)
	got := hashFile(data)
	// Hashing happens inside the enclave over data fetched through
	// OCALLs; charge ~1 cycle/byte of SHA-256 work plus the fetches.
	t.Compute(uint64(len(data)))
	t.Syscall(uint64(len(data)))
	if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
		return fmt.Errorf("libos: hash mismatch for trusted file %q", name)
	}
	inst.verified[name] = true
	return nil
}

// FS returns the filesystem view the application should use: the
// shimmed (and, if configured, protected) filesystem.
func (inst *Instance) FS() osal.FileSystem {
	if inst.Manifest.ProtectedFiles {
		return &ProtectedFS{inst: inst}
	}
	return &ShimFS{inst: inst}
}

// ShimFS returns the plaintext trusted/allowed-file view regardless of
// the ProtectedFiles setting; a Graphene-style manifest mounts trusted
// input files and protected files side by side.
func (inst *Instance) ShimFS() osal.FileSystem { return &ShimFS{inst: inst} }
