package openssl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/wltest"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "OpenSSL" || !w.NativePort() {
		t.Error("metadata wrong")
	}
}

func TestFileSizesMatchTable2Ratios(t *testing.T) {
	// Table 2: 76/88/151 MB against a 92 MB EPC. The scaled files
	// must keep those proportions: Low and Medium below the EPC,
	// High well above.
	w := New()
	epcBytes := int64(96) * 4096
	low := w.DefaultParams(96, workloads.Low).MustKnob("file_bytes")
	med := w.DefaultParams(96, workloads.Medium).MustKnob("file_bytes")
	high := w.DefaultParams(96, workloads.High).MustKnob("file_bytes")
	if !(low < med && med < epcBytes && high > epcBytes*3/2) {
		t.Errorf("file sizes %d/%d/%d vs EPC %d break Table 2 shape", low, med, high, epcBytes)
	}
}

func TestSetupCreatesCiphertext(t *testing.T) {
	ctx := wltest.NewCtx(t, New(), sgx.Vanilla, workloads.Low)
	raw := readFile(ctx.RawFS, inputFile)
	if raw == nil {
		t.Fatal("setup created no input file")
	}
	// The input must be encrypted: decrypting it with the workload
	// key yields the generated plaintext, and the raw bytes differ
	// from it.
	plain := make([]byte, len(raw))
	ctr(key(ctx.Seed), 1).XORKeyStream(plain, raw)
	if bytes.Equal(plain[:256], raw[:256]) {
		t.Error("input file appears to be plaintext")
	}
}

func TestOutputDecryptsToTransformedInput(t *testing.T) {
	ctx := wltest.NewCtx(t, New(), sgx.Vanilla, workloads.Low)
	if _, err := New().Run(ctx); err != nil {
		t.Fatal(err)
	}
	in := readFile(ctx.RawFS, inputFile)
	out := readFile(ctx.RawFS, outputFile)
	if out == nil || len(out) != len(in) {
		t.Fatalf("output file missing or wrong size: %d vs %d", len(out), len(in))
	}
	// Decrypt both with their respective nonces: the workload
	// re-encrypts the same plaintext, so the decryptions must match.
	k := key(ctx.Seed)
	plainIn := make([]byte, len(in))
	ctr(k, 1).XORKeyStream(plainIn, in)
	plainOut := make([]byte, len(out))
	ctr(k, 2).XORKeyStream(plainOut, out)
	if !bytes.Equal(plainIn, plainOut) {
		t.Fatal("output does not decrypt to the input plaintext")
	}
	if bytes.Equal(in, out) {
		t.Fatal("output bytes identical to input (nonce reuse)")
	}
}

// readFile returns a copy of a file's bytes, or nil when it is absent.
func readFile(fs *osal.FS, name string) []byte {
	n := fs.Size(name)
	if n < 0 {
		return nil
	}
	b := make([]byte, n)
	fs.ReadRaw(name, 0, b)
	return b
}

// TestSetupStreamsTheOneShotFile: Setup writes the input file chunk by
// chunk, and the bytes equal one pass of the generator and the key
// stream over the whole file, including a final partial chunk whose
// length is not a multiple of the 8-byte word.
func TestSetupStreamsTheOneShotFile(t *testing.T) {
	const n = 2*chunk + 13
	ctx := &workloads.Ctx{
		RawFS:  osal.NewFS(),
		Params: workloads.Params{Knobs: map[string]int64{"file_bytes": n}},
		Seed:   7,
	}
	if err := New().Setup(ctx); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	seed := workloads.Mix64(uint64(ctx.Seed))
	for i := 0; i+8 <= len(want); i += 8 {
		seed = workloads.Mix64(seed)
		binary.LittleEndian.PutUint64(want[i:], seed)
	}
	ctr(key(ctx.Seed), 1).XORKeyStream(want, want)
	if got := readFile(ctx.RawFS, inputFile); !bytes.Equal(got, want) {
		t.Fatalf("streamed input file (%d bytes) differs from the one-shot generation (%d bytes)", len(got), len(want))
	}
}

// TestChunkBuffersLeaveNoTrace pins the input file, the output file
// and the checksum of one Native run, and repeats it after dirtying
// every recycled chunk buffer: Setup and Run stage chunks through
// buffers shared across runs, and no byte they held before may reach
// a file or the result.
func TestChunkBuffersLeaveNoTrace(t *testing.T) {
	run := func() (in, out [32]byte, sum uint64) {
		ctx := wltest.NewCtx(t, New(), sgx.Native, workloads.Low)
		res, err := New().Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(readFile(ctx.RawFS, inputFile)), sha256.Sum256(readFile(ctx.RawFS, outputFile)), res.Checksum
	}
	in, out, sum := run()
	if got := fmt.Sprintf("%x %x %#x", in[:8], out[:8], sum); got != pinnedOpenSSLRun {
		t.Errorf("Native Low run = %s, want %s", got, pinnedOpenSSLRun)
	}
	for range 4 {
		b := chunks.Get().(*[chunk]byte)
		for i := range b {
			b[i] = 0xEE
		}
		defer chunks.Put(b)
	}
	if in2, out2, sum2 := run(); in2 != in || out2 != out || sum2 != sum {
		t.Error("a run over dirty recycled chunk buffers wrote other bytes or checksum")
	}
}

// pinnedOpenSSLRun is TestChunkBuffersLeaveNoTrace's run as it was
// when each Setup and each Run phase allocated its own chunk buffer:
// the first 8 bytes of the SHA-256 of the input and output files, and
// the checksum.
const pinnedOpenSSLRun = "e95d8bee971caadb bb4c75243a3075a0 0xcdcf2971917c9639"

func TestRunAcrossModes(t *testing.T) {
	wltest.RunAllModes(t, New(), workloads.Low)
}

func TestInvalidParams(t *testing.T) {
	w := New()
	ctx := &workloads.Ctx{
		Params: workloads.Params{Knobs: map[string]int64{"file_bytes": 0}},
	}
	if err := w.Setup(ctx); err == nil {
		t.Error("zero-byte file accepted")
	}
}
