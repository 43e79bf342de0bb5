package libos

import (
	"bytes"
	"testing"
)

// FuzzProtectedFile drives a protected file's ReadAt and WriteAt at
// arbitrary offsets and lengths (holes, partial chunks, multi-chunk
// extents) in lockstep with a plain byte model, and flips bits in
// sealed chunks through the untrusted FS. After every op the handle's
// size matches the model and a read returns the model's bytes; a flip
// in any written chunk fails the next read of that chunk, and the
// chunk reads clean again once the bit is flipped back. At the end a
// fresh handle reads the whole file back. Each 6-byte op is a kind
// byte (its low two bits: 0 and 3 write, 1 reads, 2 flips; the rest a
// source offset), a 16-bit file offset, a 14-bit length and a bit
// index; a flip takes the chunk from the offset and the sealed byte
// from the length.
func FuzzProtectedFile(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x00, 0x10, 0, 1, 0, 0, 0x00, 0x10, 0})
	f.Add([]byte{4, 0x32, 0x20, 0x10, 0, 0, 1, 0, 0, 0x40, 0x20, 0, 2, 2, 0, 0x05, 0, 0})
	f.Add([]byte{8, 0x00, 0x0F, 0xFF, 0x3F, 0, 0, 0x10, 0x80, 0x00, 0x01, 0, 1, 0x00, 0x00, 0xFF, 0x3F, 0})
	f.Add([]byte{0, 0x00, 0x80, 0x10, 0, 0, 1, 0x00, 0x00, 0x00, 0x10, 0, 2, 0x00, 0x80, 0x13, 0x10, 0})
	m, fs, inst := boot(f, 64, Manifest{ProtectedFiles: true})
	tr := inst.Env.Main
	pf := inst.FS()
	const srcBytes, maxOp = 1 << 15, 1<<14 - 1
	src := make([]byte, srcBytes)
	for i := range src {
		src[i] = byte(i*131 + 17)
	}
	buf := m.AllocUntrusted(srcBytes, 8)
	tr.Write(buf, src)
	out := m.AllocUntrusted(1<<16+maxOp, 8)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 6*64 {
			prog = prog[:6*64]
		}
		h, err := pf.CreateFile(tr, "f")
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		written := map[int]bool{} // chunks some write sealed
		check := func(op, off, n int) {
			t.Helper()
			want, from := 0, min(off, len(model))
			if off < len(model) {
				want = min(n, len(model)-off)
			}
			got, err := h.ReadAt(tr, out, off, n)
			if err != nil || got != want {
				t.Fatalf("op %d: ReadAt(off %d, n %d) = %d, %v; want %d bytes", op, off, n, got, err, want)
			}
			data := make([]byte, got)
			tr.Read(out, data)
			if !bytes.Equal(data, model[from:from+got]) {
				t.Fatalf("op %d: ReadAt(off %d, n %d) differs from the model", op, off, n)
			}
		}
		for i := 0; i+6 <= len(prog); i += 6 {
			op := prog[i : i+6]
			kind := op[0] & 3
			srcOff := int(op[0]>>2) * 256
			off := int(op[1]) | int(op[2])<<8
			n := (int(op[3]) | int(op[4])<<8) & maxOp
			switch kind {
			case 0, 3:
				if got, err := h.WriteAt(tr, buf+uint64(srcOff), off, n); err != nil || got != n {
					t.Fatalf("op %d: WriteAt(off %d, n %d) = %d, %v", i/6, off, n, got, err)
				}
				if end := off + n; end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], src[srcOff:srcOff+n])
				for ci := off / pfChunk; n > 0 && ci*pfChunk < off+n; ci++ {
					written[ci] = true
				}
			case 1:
				check(i/6, off, n)
			case 2:
				if len(written) == 0 {
					continue
				}
				ci := off % (len(model)/pfChunk + 1)
				if !written[ci] {
					continue
				}
				at := ci*pfSealed + n%pfSealed
				bit := op[5] % 8
				flipBit(fs, "f", at, bit)
				if _, err := h.ReadAt(tr, out, ci*pfChunk, 1); err == nil {
					t.Fatalf("op %d: chunk %d read back without error after a flip of sealed byte %d", i/6, ci, n%pfSealed)
				}
				flipBit(fs, "f", at, bit)
				check(i/6, ci*pfChunk, pfChunk)
			}
			if h.Size() != len(model) {
				t.Fatalf("op %d: Size = %d, want %d", i/6, h.Size(), len(model))
			}
		}
		if err := h.Close(tr); err != nil {
			t.Fatal(err)
		}
		if h, err = pf.Open(tr, "f"); err != nil {
			t.Fatal(err)
		}
		if h.Size() != len(model) {
			t.Fatalf("reopened Size = %d, want %d", h.Size(), len(model))
		}
		check(-1, 0, len(model))
		if err := h.Close(tr); err != nil {
			t.Fatal(err)
		}
	})
}
