package osal

import (
	"bytes"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

func testEnv() (*sgx.Machine, *sgx.Thread) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	env := m.NewEnv(sgx.Vanilla)
	return m, env.Main
}

func TestHostSideOps(t *testing.T) {
	fs := NewFS()
	if fs.Size("x") != -1 || fs.Raw("x") != nil {
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
	raw := fs.Raw("out")
	if !bytes.Equal(raw[10:18], []byte("payload!")) {
		t.Errorf("file content = %q", raw[10:18])
	}
	for _, b := range raw[:10] {
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
	raw := fs.Raw("new")
	if len(raw) != 7 || !bytes.Equal(raw[4:], []byte("abc")) {
		t.Errorf("PatchRaw created %q", raw)
	}
	fs.PatchRaw("new", 0, []byte("zz"))
	if got := fs.Raw("new"); got[0] != 'z' || len(got) != 7 {
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
			if got := fs.Raw("f"); !bytes.Equal(got, []byte("01234567")) {
				t.Errorf("file changed to %q", got)
			}
		})
	}
}

// TestWriteGrowthIsAmortized writes a file chunk by chunk and counts
// the reallocations of its backing array and the bytes they allocate:
// growing to exactly the written length would reallocate (and copy
// the whole file) on every chunk, and append's ~1.25x growth for
// large slices allocates about five times the final size.
func TestWriteGrowthIsAmortized(t *testing.T) {
	const chunk, chunks = 4096, 256
	m, tr := testEnv()
	fs := NewFS()
	buf := m.AllocUntrusted(chunk, 8)
	h, err := fs.CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	reallocs, allocated, lastCap := 0, 0, 0
	for i := 0; i < chunks; i++ {
		if _, err := h.WriteAt(tr, buf, i*chunk, chunk); err != nil {
			t.Fatal(err)
		}
		if c := cap(fs.Raw("f")); c != lastCap {
			reallocs, allocated, lastCap = reallocs+1, allocated+c, c
		}
	}
	if h.Size() != chunk*chunks {
		t.Fatalf("Size = %d, want %d", h.Size(), chunk*chunks)
	}
	if reallocs > 32 {
		t.Errorf("%d reallocations for %d sequential chunks, want <= 32", reallocs, chunks)
	}
	if limit := 3 * chunk * chunks; allocated > limit {
		t.Errorf("writing a %d-byte file allocated %d bytes of backing arrays, want <= %d (3x its size)",
			chunk*chunks, allocated, limit)
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
	if got := fs.Raw("patched"); !bytes.Equal(got[8:], []byte("xyz")) {
		t.Errorf("patched file = %q", got)
	}
}

// TestSparseWriteIntoSpareCapacity grows a file until its backing
// array has room to spare, then writes past a gap that fits in that
// room: the gap must read back as zeros.
func TestSparseWriteIntoSpareCapacity(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	buf := m.AllocUntrusted(mem.PageSize, 8)
	tr.Write(buf, bytes.Repeat([]byte{0x5A}, mem.PageSize))
	h, err := fs.CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && cap(fs.Raw("f"))-h.Size() < 64; i++ {
		if _, err := h.WriteAt(tr, buf, h.Size(), 100); err != nil {
			t.Fatal(err)
		}
	}
	end, room := h.Size(), cap(fs.Raw("f"))
	if room-end < 64 {
		t.Fatalf("no spare capacity after growth: len %d, cap %d", end, room)
	}
	if _, err := h.WriteAt(tr, buf, end+32, 8); err != nil {
		t.Fatal(err)
	}
	if cap(fs.Raw("f")) != room {
		t.Fatal("sparse write reallocated instead of using spare capacity")
	}
	if n, err := h.ReadAt(tr, buf, end, 32); err != nil || n != 32 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	hole := make([]byte, 32)
	tr.Read(buf, hole)
	if !bytes.Equal(hole, make([]byte, 32)) {
		t.Errorf("hole reads %x, want zeros", hole)
	}
}

// FuzzFileWrites runs a random sequence of WriteAt and PatchRaw calls
// on one file and checks it against a plain byte-slice model after
// every call: written bytes land where they should, holes read back
// as zeros, and growth into spare capacity leaves no stale bytes.
// Each 5-byte op is a kind byte (bit 0 picks PatchRaw, the rest a
// source offset), a 16-bit file offset and a 12-bit length.
func FuzzFileWrites(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0xFF, 0x0F, 1, 0x00, 0x20, 8, 0})
	f.Add([]byte{2, 0x10, 0, 100, 0, 3, 0x00, 0x02, 50, 0, 4, 0x80, 0, 1, 0, 5, 0x05, 0, 0, 0})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 1, 0, 6, 0x34, 0x12, 0x10, 0x01})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 5*200 {
			prog = prog[:5*200]
		}
		const srcBytes = 8 * 1024
		m, tr := testEnv()
		fs := NewFS()
		src := make([]byte, srcBytes)
		for i := range src {
			src[i] = byte(i*31 + 7)
		}
		buf := m.AllocUntrusted(srcBytes, 8)
		tr.Write(buf, src)
		h, err := fs.CreateFile(tr, "f")
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		for i := 0; i+5 <= len(prog); i += 5 {
			op := prog[i : i+5]
			srcOff := int(op[0]>>1) * 16
			off := int(op[1]) | int(op[2])<<8
			n := (int(op[3]) | int(op[4])<<8) & 0xFFF
			data := src[srcOff : srcOff+n]
			if op[0]&1 == 1 {
				fs.PatchRaw("f", off, data)
			} else if got, err := h.WriteAt(tr, buf+uint64(srcOff), off, n); err != nil || got != n {
				t.Fatalf("op %d: WriteAt(off %d, n %d) = %d, %v", i/5, off, n, got, err)
			}
			if end := off + n; end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[off:], data)
			if got := fs.Raw("f"); !bytes.Equal(got, model) {
				t.Fatalf("op %d (kind %d, off %d, n %d): file has %d bytes, model %d; contents differ",
					i/5, op[0]&1, off, n, len(got), len(model))
			}
			if h.Size() != len(model) {
				t.Fatalf("op %d: Size = %d, want %d", i/5, h.Size(), len(model))
			}
		}
	})
}
