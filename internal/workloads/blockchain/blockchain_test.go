package blockchain

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/wltest"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "Blockchain" || !w.NativePort() {
		t.Error("metadata wrong")
	}
}

func TestBlockCountsMatchTable2(t *testing.T) {
	w := New()
	want := map[workloads.Size]int64{workloads.Low: 3, workloads.Medium: 5, workloads.High: 8}
	for s, n := range want {
		if got := w.DefaultParams(96, s).MustKnob("blocks"); got != n {
			t.Errorf("%v: blocks = %d, want %d (Table 2)", s, got, n)
		}
	}
	if w.DefaultParams(96, workloads.Low).Threads != 16 {
		t.Error("default threads != 16")
	}
}

func TestProofOfWorkValid(t *testing.T) {
	// Mine a tiny chain and verify the winning hashes actually meet
	// the difficulty target (real SHA-256, not a stub).
	params := workloads.Params{
		Size:    workloads.Low,
		Threads: 4,
		Knobs:   map[string]int64{"blocks": 2, "difficulty_bits": 6},
	}
	ctx := wltest.NewCtxParams(t, New(), sgx.Vanilla, params, 96)
	out, err := New().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ops < 2 {
		t.Errorf("only %d attempts for 2 blocks", out.Ops)
	}
	if out.Checksum == 0 {
		t.Error("empty chain checksum")
	}
}

func TestAttemptHashDeterministic(t *testing.T) {
	var h header
	h.prev[0] = 1
	h.payload[31] = 2
	var x, y attempt
	copy(x.sample(), "payload")
	copy(y.sample(), "payload")
	a := x.hash(h, 42)
	b := y.hash(h, 42)
	if a != b {
		t.Error("attempt hash not deterministic")
	}
	c := x.hash(h, 43)
	if a == c {
		t.Error("nonce does not affect the hash")
	}
	if binary.BigEndian.Uint64(a[:8]) == 0 {
		t.Error("degenerate hash")
	}
	// The hash is SHA-256 over prev, payload digest, nonce and
	// sample, in that order, whatever the attempt held before.
	d := sha256.New()
	d.Write(h.prev[:])
	d.Write(h.payload[:])
	d.Write(binary.LittleEndian.AppendUint64(nil, 42))
	d.Write(y.sample())
	if x.hash(h, 42) != [32]byte(d.Sum(nil)) {
		t.Error("attempt hash is not SHA-256 of prev ∥ payload ∥ nonce ∥ sample")
	}
}

func TestECallPerAttemptInNativeMode(t *testing.T) {
	params := workloads.Params{
		Size:    workloads.Low,
		Threads: 4,
		Knobs:   map[string]int64{"blocks": 2, "difficulty_bits": 6},
	}
	ctx := wltest.NewCtxParams(t, New(), sgx.Native, params, 96)
	before := ctx.Env.Snapshot()
	out, err := New().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	delta := ctx.Env.Snapshot().Sub(before)
	// One ECALL per hash attempt, one per block for the payload
	// digest, plus the final chain-verification entry (paper §4.2.1:
	// the hash function "is called by many threads from the unsecure
	// region resulting in many ECALLs").
	want := uint64(out.Ops) + 2 + 1
	if got := delta.Get(perf.ECalls); got != want {
		t.Errorf("ECALLs = %d, want %d (attempts+digests+verify)", got, want)
	}
}

func TestRunAcrossModes(t *testing.T) {
	params := workloads.Params{
		Size:    workloads.Low,
		Threads: 4,
		Knobs:   map[string]int64{"blocks": 2, "difficulty_bits": 6},
	}
	var got []workloads.Output
	for _, mode := range []sgx.Mode{sgx.Vanilla, sgx.Native, sgx.LibOS} {
		ctx := wltest.NewCtxParams(t, New(), mode, params, 96)
		out, err := New().Run(ctx)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got = append(got, out)
	}
	if got[0].Checksum != got[1].Checksum || got[0].Checksum != got[2].Checksum {
		t.Error("modes mined different chains")
	}
	if got[0].Ops != got[1].Ops {
		t.Error("modes performed different attempt counts")
	}
}

func TestMoreBlocksMoreWork(t *testing.T) {
	run := func(blocks int64) int64 {
		params := workloads.Params{
			Size:    workloads.Low,
			Threads: 4,
			Knobs:   map[string]int64{"blocks": blocks, "difficulty_bits": 6},
		}
		ctx := wltest.NewCtxParams(t, New(), sgx.Vanilla, params, 96)
		out, err := New().Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return out.Ops
	}
	if run(6) <= run(2) {
		t.Error("more blocks did not require more attempts")
	}
}

func TestInvalidParams(t *testing.T) {
	for _, knobs := range []map[string]int64{
		{"blocks": 0, "difficulty_bits": 4},
		{"blocks": 2, "difficulty_bits": -1},
		{"blocks": 2, "difficulty_bits": 60},
	} {
		ctx := wltest.NewCtxParams(t, New(), sgx.Vanilla,
			workloads.Params{Threads: 2, Knobs: knobs}, 96)
		if _, err := New().Run(ctx); err == nil {
			t.Errorf("knobs %v accepted", knobs)
		}
	}
}
