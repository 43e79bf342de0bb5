package osal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

// raw returns a copy of a file's bytes through ReadRaw, or nil when
// the file is absent. It reads into a buffer of 0xFF bytes, so a gap
// that ReadRaw failed to zero shows.
func raw(fs *FS, name string) []byte {
	n := fs.Size(name)
	if n < 0 {
		return nil
	}
	b := bytes.Repeat([]byte{0xFF}, n)
	if got := fs.ReadRaw(name, 0, b); got != n {
		panic("osal: ReadRaw read short of Size")
	}
	return b
}

func testEnv() (*sgx.Machine, *sgx.Thread) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	env := m.NewEnv(sgx.Vanilla)
	return m, env.Main
}

func TestHostSideOps(t *testing.T) {
	fs := NewFS()
	if fs.Size("x") != -1 || raw(fs, "x") != nil || fs.ReadRaw("x", 0, make([]byte, 4)) != 0 {
		t.Error("missing file misreported")
	}
	fs.Create("a", []byte("hello"))
	fs.Create("b", nil)
	if fs.Size("a") != 5 {
		t.Errorf("Size = %d", fs.Size("a"))
	}
	if got := fs.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	fs.Remove("a")
	if fs.Size("a") != -1 {
		t.Error("Remove did not delete")
	}
	fs.Remove("a") // idempotent
}

func TestOpenMissingFile(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	if _, err := fs.Open(tr, "nope"); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	if m.Counters.Get(perf.Syscalls) != 1 {
		t.Error("failed open did not cost a syscall")
	}
}

func TestReadIntoSpace(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	content := []byte("0123456789abcdef")
	fs.Create("f", content)

	buf := m.AllocUntrusted(64, 8)
	h, err := fs.Open(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	n, err := h.ReadAt(tr, buf, 4, 8)
	if err != nil || n != 8 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	out := make([]byte, 8)
	tr.Read(buf, out)
	if !bytes.Equal(out, content[4:12]) {
		t.Errorf("read %q, want %q", out, content[4:12])
	}
	// Short read at EOF.
	n, err = h.ReadAt(tr, buf, 12, 100)
	if err != nil || n != 4 {
		t.Fatalf("EOF ReadAt = %d, %v", n, err)
	}
	// Past EOF.
	n, err = h.ReadAt(tr, buf, 100, 8)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF ReadAt = %d, %v", n, err)
	}
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFromSpaceAndGrowth(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	buf := m.AllocUntrusted(mem.PageSize, 8)
	tr.Write(buf, []byte("payload!"))

	h, err := fs.CreateFile(tr, "out")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 10, 8); err != nil {
		t.Fatal(err)
	}
	if h.Size() != 18 {
		t.Errorf("Size = %d, want 18 (sparse growth)", h.Size())
	}
	got := raw(fs, "out")
	if !bytes.Equal(got[10:18], []byte("payload!")) {
		t.Errorf("file content = %q", got[10:18])
	}
	for _, b := range got[:10] {
		if b != 0 {
			t.Error("hole not zero-filled")
		}
	}
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}
}

func TestClosedHandleErrors(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	fs.Create("f", []byte("x"))
	buf := m.AllocUntrusted(8, 8)
	h, _ := fs.Open(tr, "f")
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(tr, buf, 0, 1); err == nil {
		t.Error("read on closed handle succeeded")
	}
	if _, err := h.WriteAt(tr, buf, 0, 1); err == nil {
		t.Error("write on closed handle succeeded")
	}
	if err := h.Close(tr); err == nil {
		t.Error("double close succeeded")
	}
}

func TestSyscallCostsCharged(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	fs.Create("f", make([]byte, 4096))
	buf := m.AllocUntrusted(4096, 8)

	h, _ := fs.Open(tr, "f")
	before := tr.Clock.Cycles()
	sysBefore := m.Counters.Get(perf.Syscalls)
	h.ReadAt(tr, buf, 0, 4096)
	if tr.Clock.Cycles() == before {
		t.Error("read charged no cycles")
	}
	if m.Counters.Get(perf.Syscalls) != sysBefore+1 {
		t.Error("read did not count a syscall")
	}
}

func TestPatchRaw(t *testing.T) {
	fs := NewFS()
	fs.PatchRaw("new", 4, []byte("abc"))
	got := raw(fs, "new")
	if len(got) != 7 || !bytes.Equal(got[4:], []byte("abc")) {
		t.Errorf("PatchRaw created %q", got)
	}
	fs.PatchRaw("new", 0, []byte("zz"))
	if got := raw(fs, "new"); got[0] != 'z' || len(got) != 7 {
		t.Errorf("PatchRaw overwrite = %q", got)
	}
}

func TestCreateFileTruncates(t *testing.T) {
	_, tr := testEnv()
	fs := NewFS()
	fs.Create("f", []byte("old content"))
	h, err := fs.CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 0 {
		t.Errorf("CreateFile kept %d bytes", h.Size())
	}
}

func TestNegativeOffsetOrLengthErrors(t *testing.T) {
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
			m, tr := testEnv()
			fs := NewFS()
			fs.Create("f", []byte("01234567"))
			buf := m.AllocUntrusted(8, 8)
			h, err := fs.Open(tr, "f")
			if err != nil {
				t.Fatal(err)
			}
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
			if got := raw(fs, "f"); !bytes.Equal(got, []byte("01234567")) {
				t.Errorf("file changed to %q", got)
			}
		})
	}
}

// TestChunkedWriteAllocatesItsSize writes a 1 MiB file in 64 KiB
// chunks and bounds what the writes allocate: the file's pages, the
// handle's one scratch buffer and the page table, about 1.07x the
// file. A file kept as one contiguous array would reallocate and copy
// it as it grows (doubling allocates about twice its size). The bound
// holds whether or not the page recycler has frames to hand out.
func TestChunkedWriteAllocatesItsSize(t *testing.T) {
	const chunk, size = 64 << 10, 1 << 20
	m, tr := testEnv()
	fs := NewFS()
	buf := m.AllocUntrusted(chunk, 8)
	tr.Write(buf, bytes.Repeat([]byte{0x3C}, chunk))
	h, err := fs.CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < size; off += chunk {
		if _, err := h.WriteAt(tr, buf, off, chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if h.Size() != size {
		t.Fatalf("Size = %d, want %d", h.Size(), size)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(size)*11/10; got > limit {
		t.Errorf("writing a %d-byte file in %d-byte chunks allocated %d bytes, want <= %d (1.1x its size)",
			size, chunk, got, limit)
	}
}

// TestGrowthLeavesCallerArrayAlone checks that Create takes the
// caller's slice without its spare capacity: growing the file must not
// write into the caller's array past the slice's length.
func TestGrowthLeavesCallerArrayAlone(t *testing.T) {
	m, tr := testEnv()
	full := bytes.Repeat([]byte{0xAA}, 64)
	fs := NewFS()
	fs.Create("patched", full[:8])
	fs.PatchRaw("patched", 8, []byte("xyz"))
	fs.Create("written", full[:8])
	buf := m.AllocUntrusted(8, 8)
	h, err := fs.Open(tr, "written")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 12, 8); err != nil {
		t.Fatal(err)
	}
	for i, b := range full[8:] {
		if b != 0xAA {
			t.Fatalf("caller's array overwritten at byte %d", 8+i)
		}
	}
	if got := raw(fs, "patched"); !bytes.Equal(got[8:], []byte("xyz")) {
		t.Errorf("patched file = %q", got)
	}
}

// TestSparseGapReadsZeroOverDirtyRecycledPages fills the page
// recycler with dirty pages (a released FS full of 0x5A), then writes
// a new file sparsely: the gap pages, and the bytes of a partly
// written page past its old end, read back as zeros.
func TestSparseGapReadsZeroOverDirtyRecycledPages(t *testing.T) {
	m, tr := testEnv()
	dirty := NewFS()
	dirty.Create("d", bytes.Repeat([]byte{0x5A}, 64*mem.PageSize))
	dirty.Release()
	if mem.PooledPages() == 0 {
		t.Fatal("the released FS gave no page back to the recycler")
	}
	fs := NewFS()
	buf := m.AllocUntrusted(mem.PageSize, 8)
	tr.Write(buf, bytes.Repeat([]byte{0xEE}, mem.PageSize))
	h, err := fs.CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	writes := []struct{ off, n int }{
		{100, 10},                  // page 0, partly
		{mem.PageSize - 8, 8},      // page 0's tail, past a gap inside the page
		{5*mem.PageSize + 3, 40},   // page 5, past four gap pages
		{5*mem.PageSize + 100, 20}, // page 5 again, past its old end
	}
	want := make([]byte, 0)
	for _, w := range writes {
		if _, err := h.WriteAt(tr, buf, w.off, w.n); err != nil {
			t.Fatal(err)
		}
		if end := w.off + w.n; end > len(want) {
			want = append(want, make([]byte, end-len(want))...)
		}
		copy(want[w.off:], bytes.Repeat([]byte{0xEE}, w.n))
	}
	if got := raw(fs, "f"); !bytes.Equal(got, want) {
		t.Fatal("file bytes differ from the zero-filled model: a gap read recycled bytes")
	}
	out := m.AllocUntrusted(uint64(len(want)), 8)
	if n, err := h.ReadAt(tr, out, 0, len(want)); err != nil || n != len(want) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	got := make([]byte, len(want))
	tr.Read(out, got)
	if !bytes.Equal(got, want) {
		t.Fatal("handle read differs from the zero-filled model")
	}
}

// TestReleasePanicsOnEveryAccess: once released, the FS and every
// handle it gave out panic on any access instead of reading pages that
// now belong to the recycler.
func TestReleasePanicsOnEveryAccess(t *testing.T) {
	m, tr := testEnv()
	buf := m.AllocUntrusted(8, 8)
	fs := NewFS()
	fs.Create("f", []byte("contents"))
	h, err := fs.Open(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	fs.Release()
	accesses := map[string]func(){
		"Create":         func() { fs.Create("g", []byte("x")) },
		"Remove":         func() { fs.Remove("f") },
		"ReadRaw":        func() { fs.ReadRaw("f", 0, make([]byte, 4)) },
		"PatchRaw":       func() { fs.PatchRaw("f", 0, []byte("x")) },
		"Size":           func() { fs.Size("f") },
		"List":           func() { fs.List() },
		"Open":           func() { fs.Open(tr, "f") },
		"CreateFile":     func() { fs.CreateFile(tr, "g") },
		"Release":        func() { fs.Release() },
		"handle ReadAt":  func() { h.ReadAt(tr, buf, 0, 4) },
		"handle WriteAt": func() { h.WriteAt(tr, buf, 0, 4) },
		"handle Size":    func() { h.Size() },
		"handle Close":   func() { h.Close(tr) },
	}
	for name, access := range accesses {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			access()
		})
	}
}

// TestHandleKeepsBytesAcrossRemoveAndCreate: a handle opened before
// its file is removed, or replaced by Create or CreateFile, keeps
// reading the old bytes, even after later files take every frame the
// recycler holds; a fresh Open sees the new file.
func TestHandleKeepsBytesAcrossRemoveAndCreate(t *testing.T) {
	m, tr := testEnv()
	old := bytes.Repeat([]byte("old bytes!"), 1000)
	buf := m.AllocUntrusted(uint64(len(old)), 8)
	readAll := func(h Handle) []byte {
		t.Helper()
		n, err := h.ReadAt(tr, buf, 0, h.Size())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		tr.Read(buf, got)
		return got
	}
	replace := map[string]func(fs *FS){
		"Remove":     func(fs *FS) { fs.Remove("f") },
		"Create":     func(fs *FS) { fs.Create("f", []byte("new")) },
		"CreateFile": func(fs *FS) { fs.CreateFile(tr, "f") },
	}
	for name, do := range replace {
		t.Run(name, func(t *testing.T) {
			fs := NewFS()
			fs.Create("f", old)
			h, err := fs.Open(tr, "f")
			if err != nil {
				t.Fatal(err)
			}
			do(fs)
			// Take more frames than the recycler holds: a page of
			// the old file given back would be overwritten here.
			NewFS().Create("c", bytes.Repeat([]byte{0xFF}, 600*mem.PageSize))
			if got := readAll(h); !bytes.Equal(got, old) {
				t.Fatalf("handle opened before %s lost its bytes", name)
			}
			if fresh, err := fs.Open(tr, "f"); name == "Remove" {
				if err == nil {
					t.Fatal("Open found a removed file")
				}
			} else if err != nil || bytes.Equal(readAll(fresh), old) {
				t.Fatalf("Open after %s: %v, still the old bytes", name, err)
			}
			if err := h.Close(tr); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentUseOfOneFS drives one FS from several goroutines at
// once, each through its own handle plus host-side PatchRaw and
// ReadRaw of a shared file (run it under -race).
func TestConcurrentUseOfOneFS(t *testing.T) {
	const workers, chunks = 4, 32
	fs := NewFS()
	defer fs.Release()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m, tr := testEnv()
		buf := m.AllocUntrusted(mem.PageSize, 8)
		tr.Write(buf, bytes.Repeat([]byte{byte(w + 1)}, mem.PageSize))
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("f%d", w)
			h, err := fs.CreateFile(tr, name)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < chunks; i++ {
				if _, err := h.WriteAt(tr, buf, i*mem.PageSize, mem.PageSize); err != nil {
					t.Error(err)
					return
				}
				fs.PatchRaw("shared", (w*chunks+i)*8, []byte{byte(w), 1, 2, 3, 4, 5, 6, 7})
				fs.ReadRaw("shared", 0, make([]byte, 64))
			}
			if got, want := raw(fs, name), bytes.Repeat([]byte{byte(w + 1)}, chunks*mem.PageSize); !bytes.Equal(got, want) {
				t.Errorf("file %s lost bytes to a concurrent writer", name)
			}
			if err := h.Close(tr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := fs.Size("shared"); got != workers*chunks*8 {
		t.Errorf("shared file is %d bytes, want %d", got, workers*chunks*8)
	}
}

// FuzzFileWrites runs a random sequence of WriteAt, PatchRaw and
// replace calls on one file and checks it against a plain byte-slice
// model after every call: written bytes land where they should, holes
// read back as zeros, and growth leaves no stale bytes. A replace
// (Remove then Create with new contents, or CreateFile truncating the
// name) moves the writes to a new handle; the handle it replaces must
// still read the old bytes. Each 5-byte op is a kind byte (its low two
// bits pick WriteAt, PatchRaw, Remove+Create or CreateFile, the rest a
// source offset), a 16-bit file offset and a 12-bit length.
func FuzzFileWrites(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0xFF, 0x0F, 1, 0x00, 0x20, 8, 0})
	f.Add([]byte{2, 0x10, 0, 100, 0, 3, 0x00, 0x02, 50, 0, 4, 0x80, 0, 1, 0, 5, 0x05, 0, 0, 0})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 1, 0, 6, 0x34, 0x12, 0x10, 0x01})
	f.Add([]byte{0, 0x00, 0x30, 0x00, 0x08, 0x0A, 0, 0, 0x20, 0, 4, 0x00, 0x10, 0x10, 0, 3, 0, 0, 0, 0, 8, 0x10, 0x10, 0x10, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 5*200 {
			prog = prog[:5*200]
		}
		const srcBytes = 8 * 1024
		m, tr := testEnv()
		fs := NewFS()
		defer fs.Release()
		src := make([]byte, srcBytes)
		for i := range src {
			src[i] = byte(i*31 + 7)
		}
		buf := m.AllocUntrusted(srcBytes, 8)
		tr.Write(buf, src)
		out := m.AllocUntrusted(1<<16+1<<12, 8)
		h, err := fs.CreateFile(tr, "f")
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		for i := 0; i+5 <= len(prog); i += 5 {
			op := prog[i : i+5]
			kind := op[0] & 3
			srcOff := int(op[0]>>2) * 16
			off := int(op[1]) | int(op[2])<<8
			n := (int(op[3]) | int(op[4])<<8) & 0xFFF
			data := src[srcOff : srcOff+n]
			switch kind {
			case 0:
				if got, err := h.WriteAt(tr, buf+uint64(srcOff), off, n); err != nil || got != n {
					t.Fatalf("op %d: WriteAt(off %d, n %d) = %d, %v", i/5, off, n, got, err)
				}
				if end := off + n; end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], data)
			case 1:
				fs.PatchRaw("f", off, data)
				if end := off + n; end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], data)
			default:
				old, prev := h, model
				if kind == 2 {
					fs.Remove("f")
					fs.Create("f", data)
					model = bytes.Clone(data)
					if h, err = fs.Open(tr, "f"); err != nil {
						t.Fatal(err)
					}
				} else {
					if h, err = fs.CreateFile(tr, "f"); err != nil {
						t.Fatal(err)
					}
					model = nil
				}
				// The replaced handle still reads the old bytes.
				if got, err := old.ReadAt(tr, out, 0, len(prev)); err != nil || got != len(prev) {
					t.Fatalf("op %d: replaced handle ReadAt = %d, %v; want %d bytes", i/5, got, err, len(prev))
				}
				oldBytes := make([]byte, len(prev))
				tr.Read(out, oldBytes)
				if !bytes.Equal(oldBytes, prev) {
					t.Fatalf("op %d: the replaced handle lost its old bytes", i/5)
				}
				if err := old.Close(tr); err != nil {
					t.Fatal(err)
				}
			}
			if got := raw(fs, "f"); !bytes.Equal(got, model) {
				t.Fatalf("op %d (kind %d, off %d, n %d): file has %d bytes, model %d; contents differ",
					i/5, kind, off, n, len(got), len(model))
			}
			if h.Size() != len(model) {
				t.Fatalf("op %d: Size = %d, want %d", i/5, h.Size(), len(model))
			}
		}
	})
}
