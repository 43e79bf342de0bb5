package libos

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

func boot(t testing.TB, epcPages int, man Manifest) (*sgx.Machine, *osal.FS, *Instance) {
	t.Helper()
	m := sgx.NewMachine(sgx.Config{EPCPages: epcPages})
	fs := osal.NewFS()
	if man.Binary == "" {
		man.Binary = "app"
	}
	inst, err := Start(m, fs, man)
	if err != nil {
		t.Fatal(err)
	}
	return m, fs, inst
}

// raw returns a copy of a file's bytes on the untrusted FS, or nil
// when it is absent.
func raw(fs *osal.FS, name string) []byte {
	n := fs.Size(name)
	if n < 0 {
		return nil
	}
	b := make([]byte, n)
	fs.ReadRaw(name, 0, b)
	return b
}

// flipBit flips one bit of a file's byte on the untrusted FS, as an
// attacker with host access would.
func flipBit(fs *osal.FS, name string, off int, bit byte) {
	var b [1]byte
	fs.ReadRaw(name, off, b[:])
	b[0] ^= 1 << bit
	fs.PatchRaw(name, off, b[:])
}

func TestManifestDefaults(t *testing.T) {
	man := Manifest{Binary: "app"}.withDefaults(92 * 256) // 92 MB EPC
	if man.EnclaveSizePages != sgx.LibOSEnclaveFactor*92*256 {
		t.Errorf("EnclaveSizePages = %d", man.EnclaveSizePages)
	}
	if man.Threads != 16 {
		t.Errorf("Threads = %d, want 16 (Table 3)", man.Threads)
	}
	if man.InternalMemPages != 64*256 {
		t.Errorf("InternalMemPages = %d, want 64 MB equivalent", man.InternalMemPages)
	}
}

func TestManifestValidation(t *testing.T) {
	if err := (Manifest{}).Validate(); err == nil {
		t.Error("manifest without binary validated")
	}
	if err := (Manifest{Binary: "a", Threads: -1}).Validate(); err == nil {
		t.Error("negative threads validated")
	}
	if err := (Manifest{Binary: "a"}).Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

func TestStartFigure6aActivity(t *testing.T) {
	m, _, inst := boot(t, 64, Manifest{})
	s := inst.StartupCounters
	// Figure 6a: ~300 ECALLs, ~1000 OCALLs, ~1000 AEX exits during
	// initialization (plus the EINIT entry and eviction storm).
	if got := s.Get(perf.ECalls); got < initECalls || got > initECalls+10 {
		t.Errorf("startup ECALLs = %d, want ~%d", got, initECalls)
	}
	if got := s.Get(perf.OCalls); got < initOCalls || got > initOCalls+10 {
		t.Errorf("startup OCALLs = %d, want ~%d", got, initOCalls)
	}
	// Init interrupts plus the loader's post-measurement faults give
	// the paper's ~1000 AEX exits.
	if got := s.Get(perf.AEXs); got < 990 || got > 1010 {
		t.Errorf("startup AEXs = %d, want ~1000", got)
	}
	if got := s.Get(perf.EPCLoadBacks); got < loaderPages/2 {
		t.Errorf("startup load-backs = %d, want the loader working set (~%d)", got, loaderPages)
	}
	// The enclave is LibOSEnclaveFactor x EPC; measurement loads all
	// of it, evicting nearly everything.
	enclavePages := uint64(sgx.LibOSEnclaveFactor * 64)
	evic := s.Get(perf.EPCEvictions)
	if evic < enclavePages*8/10 {
		t.Errorf("startup evictions = %d, want most of %d enclave pages", evic, enclavePages)
	}
	if inst.StartupCycles == 0 {
		t.Error("no startup time recorded")
	}
	if !inst.Env.Main.InEnclave() {
		t.Error("application does not run inside the enclave after boot")
	}
	_ = m
}

func TestMissingManifestFile(t *testing.T) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	fs := osal.NewFS()
	_, err := Start(m, fs, Manifest{Binary: "app", Files: []string{"absent"}})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("Start with missing trusted file: %v", err)
	}
}

func TestTrustedFileVerification(t *testing.T) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	fs := osal.NewFS()
	fs.Create("input", []byte("trusted data"))
	inst, err := Start(m, fs, Manifest{Binary: "app", Files: []string{"input"}})
	if err != nil {
		t.Fatal(err)
	}
	sh := inst.FS()
	if _, err := sh.Open(inst.Env.Main, "input"); err != nil {
		t.Fatalf("verified open failed: %v", err)
	}
	// Second open uses the cached verification.
	if _, err := sh.Open(inst.Env.Main, "input"); err != nil {
		t.Fatalf("re-open failed: %v", err)
	}
}

func TestTamperedTrustedFileRejected(t *testing.T) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	fs := osal.NewFS()
	fs.Create("input", []byte("trusted data"))
	inst, err := Start(m, fs, Manifest{Binary: "app", Files: []string{"input"}})
	if err != nil {
		t.Fatal(err)
	}
	fs.Create("input", []byte("evil data!!!")) // tamper after manifest processing
	if _, err := inst.FS().Open(inst.Env.Main, "input"); err == nil {
		t.Fatal("tampered trusted file opened")
	}
}

func TestAllowedFilePassthrough(t *testing.T) {
	_, fs, inst := boot(t, 64, Manifest{})
	fs.Create("untrusted", []byte("whatever"))
	if _, err := inst.FS().Open(inst.Env.Main, "untrusted"); err != nil {
		t.Fatalf("allowed file open failed: %v", err)
	}
}

func TestShimWriteCreatesPlaintext(t *testing.T) {
	m, fs, inst := boot(t, 64, Manifest{})
	tr := inst.Env.Main
	buf := m.AllocUntrusted(64, 8)
	tr.Write(buf, []byte("plain!!!"))
	h, err := inst.FS().CreateFile(tr, "out")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 0, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw(fs, "out"), []byte("plain!!!")) {
		t.Error("shim (non-PF) output is not plaintext on the untrusted FS")
	}
}

func TestProtectedFileRoundTrip(t *testing.T) {
	m, _, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	pf := inst.FS()

	data := make([]byte, 3*pfChunk+100) // partial trailing chunk
	for i := range data {
		data[i] = byte(i * 13)
	}
	buf := m.AllocUntrusted(uint64(len(data)), 8)
	tr.Write(buf, data)

	h, err := pf.CreateFile(tr, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	if h.Size() != len(data) {
		t.Errorf("Size = %d, want %d", h.Size(), len(data))
	}
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}

	// Read it back through a fresh handle.
	h2, err := pf.Open(tr, "secret")
	if err != nil {
		t.Fatal(err)
	}
	out := m.AllocUntrusted(uint64(len(data)), 8)
	n, err := h2.ReadAt(tr, out, 0, len(data))
	if err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	tr.Read(out, got)
	if !bytes.Equal(got, data) {
		t.Fatal("protected file round trip corrupted data")
	}
}

func TestProtectedFileIsEncryptedOnDisk(t *testing.T) {
	m, fs, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	plain := bytes.Repeat([]byte("SECRET42"), pfChunk/8)
	buf := m.AllocUntrusted(pfChunk, 8)
	tr.Write(buf, plain)
	h, err := inst.FS().CreateFile(tr, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 0, pfChunk); err != nil {
		t.Fatal(err)
	}
	sealed := raw(fs, "secret")
	if bytes.Contains(sealed, []byte("SECRET42")) {
		t.Fatal("protected file leaks plaintext to the untrusted FS")
	}
	if len(sealed) != pfSealed {
		t.Errorf("sealed chunk size = %d, want %d", len(sealed), pfSealed)
	}
}

func TestProtectedFileTamperDetected(t *testing.T) {
	m, fs, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	buf := m.AllocUntrusted(pfChunk, 8)
	h, err := inst.FS().CreateFile(tr, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 0, pfChunk); err != nil {
		t.Fatal(err)
	}
	flipBit(fs, "secret", 100, 0)
	if _, err := h.ReadAt(tr, buf, 0, pfChunk); err == nil {
		t.Fatal("tampered protected chunk read back without error")
	}
}

func TestProtectedFileSparseReadAndRMW(t *testing.T) {
	m, fs, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	pf := inst.FS()
	buf := m.AllocUntrusted(pfChunk, 8)
	tr.Write(buf, bytes.Repeat([]byte{0xEE}, 16))

	h, err := pf.CreateFile(tr, "sparse")
	if err != nil {
		t.Fatal(err)
	}
	// Write 16 bytes in the middle of chunk 2 (read-modify-write of
	// a never-written chunk).
	off := 2*pfChunk + 50
	if _, err := h.WriteAt(tr, buf, off, 16); err != nil {
		t.Fatal(err)
	}
	// The hole before it reads as zeros.
	out := m.AllocUntrusted(pfChunk, 8)
	if _, err := h.ReadAt(tr, out, 0, 64); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	tr.Read(out, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("sparse hole is not zero")
		}
	}
	// The written range reads back.
	if _, err := h.ReadAt(tr, out, off, 16); err != nil {
		t.Fatal(err)
	}
	tr.Read(out, got[:16])
	for _, b := range got[:16] {
		if b != 0xEE {
			t.Fatal("RMW lost the written bytes")
		}
	}

	// Chunks 0, 9 and 10 written over a page recycler full of dirty
	// pages (a released FS of 0xFF bytes): chunks 1-8 must stay holes
	// (zero IV) and read as zeros, though the sealed file's pages
	// under them come from the recycler or are not there at all.
	dirty := osal.NewFS()
	dirty.Create("d", bytes.Repeat([]byte{0xFF}, 64*mem.PageSize))
	dirty.Release()
	tr.Write(buf, bytes.Repeat([]byte{0xEE}, pfChunk))
	g, err := pf.CreateFile(tr, "grown")
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range []int{0, 9, 10} {
		if _, err := g.WriteAt(tr, buf, ci*pfChunk, pfChunk); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Size("grown"); got != 11*pfSealed {
		t.Fatalf("sealed file is %d bytes, want %d", got, 11*pfSealed)
	}
	for ci := 1; ci <= 8; ci++ {
		if plain, err := g.(*pfHandle).readChunk(tr, ci); err != nil || plain != nil {
			t.Fatalf("chunk %d: readChunk = %d bytes, %v; want a hole", ci, len(plain), err)
		}
	}
	if _, err := g.ReadAt(tr, out, pfChunk, pfChunk); err != nil {
		t.Fatal(err)
	}
	hole := make([]byte, pfChunk)
	tr.Read(out, hole)
	if !bytes.Equal(hole, make([]byte, pfChunk)) {
		t.Fatal("hole between written chunks is not zero")
	}
}

func TestProtectedFileNegativeOffsetOrLengthErrors(t *testing.T) {
	cases := []struct {
		name   string
		write  bool
		off, n int
	}{
		{"read negative offset", false, -1, 4},
		{"read negative length", false, 2, -1},
		{"write negative offset", true, -1, 4},
		{"write negative length", true, 2, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, fs, inst := boot(t, 64, Manifest{ProtectedFiles: true})
			tr := inst.Env.Main
			buf := m.AllocUntrusted(pfChunk, 8)
			h, err := inst.FS().CreateFile(tr, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(tr, buf, 0, 16); err != nil {
				t.Fatal(err)
			}
			sealed := raw(fs, "f")
			before := m.Counters.Get(perf.Syscalls)
			var n int
			if c.write {
				n, err = h.WriteAt(tr, buf, c.off, c.n)
			} else {
				n, err = h.ReadAt(tr, buf, c.off, c.n)
			}
			if err == nil || n != 0 {
				t.Errorf("got (%d, %v), want an error", n, err)
			}
			if got := m.Counters.Get(perf.Syscalls) - before; got != 1 {
				t.Errorf("rejected call charged %d syscalls, want 1", got)
			}
			if h.Size() != 16 || !bytes.Equal(raw(fs, "f"), sealed) {
				t.Error("rejected call changed the file")
			}
		})
	}
}

// TestProtectedFileChunkedIOAllocation writes a 1 MiB protected file
// chunk by chunk and reads it back, and bounds what that allocates.
// Chunks seal into and open from the handle's own buffers, and the
// sealed file lives on recycled pages, so the write allocates at most
// the sealed file's pages and the read next to nothing: a buffer per
// chunk would add 4 KiB or more a chunk to each, and a contiguous
// sealed file would copy itself as it grows.
func TestProtectedFileChunkedIOAllocation(t *testing.T) {
	const chunks = 256
	m, fs, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	buf := m.AllocUntrusted(pfChunk, 8)
	tr.Write(buf, bytes.Repeat([]byte{0x42}, pfChunk))
	h, err := inst.FS().CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < chunks; i++ {
		if _, err := h.WriteAt(tr, buf, i*pfChunk, pfChunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	for i := 0; i < chunks; i++ {
		if _, err := h.ReadAt(tr, buf, i*pfChunk, pfChunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m2)
	if got := fs.Size("f"); got != chunks*pfSealed {
		t.Fatalf("sealed size = %d, want %d", got, chunks*pfSealed)
	}
	// Each seal or unseal still builds a CTR stream (about 0.5 KiB).
	const perChunk = 1 << 10
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(chunks*(pfSealed+perChunk)); got > limit {
		t.Errorf("writing %d chunks allocated %d bytes, want <= %d (the sealed file plus 1 KiB a chunk)", chunks, got, limit)
	}
	if got, limit := m2.TotalAlloc-m1.TotalAlloc, uint64(chunks*perChunk); got > limit {
		t.Errorf("reading %d chunks allocated %d bytes, want <= %d (1 KiB a chunk)", chunks, got, limit)
	}
}

func TestProtectedFileOpenMissing(t *testing.T) {
	_, _, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	if _, err := inst.FS().Open(inst.Env.Main, "nope"); err == nil {
		t.Fatal("opened a nonexistent protected file")
	}
}

func TestProtectedFileCostsMoreThanShim(t *testing.T) {
	cost := func(pf bool) uint64 {
		m, _, inst := boot(t, 64, Manifest{ProtectedFiles: pf})
		tr := inst.Env.Main
		buf := m.AllocUntrusted(pfChunk, 8)
		before := tr.Clock.Cycles()
		h, err := inst.FS().CreateFile(tr, "f")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := h.WriteAt(tr, buf, i*pfChunk, pfChunk); err != nil {
				t.Fatal(err)
			}
			if _, err := h.ReadAt(tr, buf, i*pfChunk, pfChunk); err != nil {
				t.Fatal(err)
			}
		}
		return tr.Clock.Cycles() - before
	}
	plain, protected := cost(false), cost(true)
	if protected <= plain {
		t.Errorf("PF I/O (%d cycles) not costlier than plain shim (%d)", protected, plain)
	}
}

func TestLoaderPagesHavePseudoContentHeapIsZero(t *testing.T) {
	m, _, inst := boot(t, 64, Manifest{})
	tr := inst.Env.Main
	// Heap memory allocated by the app must read as zeros even
	// though the pages were measured at launch.
	addr, err := inst.Env.Alloc(mem.PageSize, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ReadU64(addr) != 0 || tr.ReadU64(addr+mem.PageSize-8) != 0 {
		t.Error("heap page is not zero after launch measurement")
	}
	_ = m
}
