package libos

import (
	"bytes"
	"strings"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

func boot(t *testing.T, epcPages int, man Manifest) (*sgx.Machine, *osal.FS, *Instance) {
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
	if !bytes.Equal(fs.Raw("out"), []byte("plain!!!")) {
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
	raw := fs.Raw("secret")
	if bytes.Contains(raw, []byte("SECRET42")) {
		t.Fatal("protected file leaks plaintext to the untrusted FS")
	}
	if len(raw) != pfSealed {
		t.Errorf("sealed chunk size = %d, want %d", len(raw), pfSealed)
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
	raw := fs.Raw("secret")
	raw[100] ^= 1
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

	// Chunks 0 and 9 written, then growth into the spare capacity the
	// sealed file already holds: chunks 1-8 must stay holes (zero IV)
	// and read as zeros.
	tr.Write(buf, bytes.Repeat([]byte{0xEE}, pfChunk))
	g, err := pf.CreateFile(tr, "grown")
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range []int{0, 9} {
		if _, err := g.WriteAt(tr, buf, ci*pfChunk, pfChunk); err != nil {
			t.Fatal(err)
		}
	}
	room := cap(fs.Raw("grown"))
	if room < 11*pfSealed {
		t.Fatalf("no spare capacity for chunk 10: cap %d", room)
	}
	if _, err := g.WriteAt(tr, buf, 10*pfChunk, pfChunk); err != nil {
		t.Fatal(err)
	}
	if cap(fs.Raw("grown")) != room {
		t.Fatal("growth reallocated instead of using spare capacity")
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
			sealed := bytes.Clone(fs.Raw("f"))
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
			if h.Size() != 16 || !bytes.Equal(fs.Raw("f"), sealed) {
				t.Error("rejected call changed the file")
			}
		})
	}
}

// TestProtectedFileGrowthIsAmortized writes a protected file chunk by
// chunk (each sealed chunk lands through osal's PatchRaw) and counts
// reallocations of the sealed file's backing array.
func TestProtectedFileGrowthIsAmortized(t *testing.T) {
	const chunks = 256
	m, fs, inst := boot(t, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	buf := m.AllocUntrusted(pfChunk, 8)
	h, err := inst.FS().CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	reallocs, lastCap := 0, 0
	for i := 0; i < chunks; i++ {
		if _, err := h.WriteAt(tr, buf, i*pfChunk, pfChunk); err != nil {
			t.Fatal(err)
		}
		if c := cap(fs.Raw("f")); c != lastCap {
			reallocs, lastCap = reallocs+1, c
		}
	}
	if got := len(fs.Raw("f")); got != chunks*pfSealed {
		t.Fatalf("sealed size = %d, want %d", got, chunks*pfSealed)
	}
	if reallocs > 64 {
		t.Errorf("%d reallocations for %d sequential chunks, want <= 64", reallocs, chunks)
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
