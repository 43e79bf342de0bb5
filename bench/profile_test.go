package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "sgxgauge/internal/enclave.(*Enclave).ExtendMeasurement", "sgxgauge/internal/sgx.(*Env).LaunchEnclave"}, "enclave"},
		{[]string{"crypto/aes.encryptBlockAsm", "crypto/cipher.(*ctr).XORKeyStream", "sgxgauge/internal/mee.(*Engine).SealBatch", "sgxgauge/internal/epc.(*EPC).evictBatch"}, "mee"},
		{[]string{"sgxgauge/internal/mem.(*BackingStore).Put", "sgxgauge/internal/perf.(*Counters).Add", "sgxgauge/internal/epc.(*EPC).Fault"}, "epc"},
		{[]string{"sgxgauge/internal/workloads/btree.(*tree).findSlot", "sgxgauge/internal/harness.runOne"}, "workloads"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "sgxgauge/internal/harness.runBatch.func1"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "other"},
		{[]string{"sgxgauge/internal/ycsb.(*Zipf).Next", "sgxgauge/bench.gridChild.func1"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb []byte

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		*b = append(*b, byte(v)|0x80)
		v >>= 7
	}
	*b = append(*b, byte(v))
}

func (b *pb) uint(num int, v uint64) { b.varint(uint64(num) << 3); b.varint(v) }

func (b *pb) bytes(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	*b = append(*b, data...)
}

func (b *pb) msg(num int, fill func(m *pb)) {
	var m pb
	fill(&m)
	b.bytes(num, m)
}

func (b *pb) packed(num int, vs ...uint64) {
	b.msg(num, func(m *pb) {
		for _, v := range vs {
			m.varint(v)
		}
	})
}

// A synthetic profile exercises both encodings of repeated fields and
// an inlined frame, and must charge each sample to its layer.
func TestAttributeSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"crypto/sha256.block", "sgxgauge/internal/enclave.(*Enclave).ExtendMeasurement",
		"sgxgauge/internal/libos.Start", "runtime.gcBgMarkWorker", "runtime.futex"}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) })
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) })
	// 30ms in SHA-256 inlined into ExtendMeasurement, called from
	// libos.Start: charged to enclave.
	p.msg(2, func(m *pb) { m.packed(1, 1, 2); m.packed(2, 3, 30e6) })
	// 20ms directly in libos, location ids unpacked.
	p.msg(2, func(m *pb) { m.uint(1, 2); m.uint(2, 2); m.uint(2, 20e6) })
	p.msg(2, func(m *pb) { m.packed(1, 3); m.packed(2, 1, 10e6) })
	p.msg(2, func(m *pb) { m.packed(1, 4); m.packed(2, 1, 5e6) })
	p.msg(4, func(m *pb) {
		m.uint(1, 1)
		m.msg(4, func(l *pb) { l.uint(1, 1) }) // inlined callee first
		m.msg(4, func(l *pb) { l.uint(1, 2) })
	})
	p.msg(4, func(m *pb) { m.uint(1, 2); m.msg(4, func(l *pb) { l.uint(1, 3) }) })
	p.msg(4, func(m *pb) { m.uint(1, 3); m.msg(4, func(l *pb) { l.uint(1, 4) }) })
	p.msg(4, func(m *pb) { m.uint(1, 4); m.msg(4, func(l *pb) { l.uint(1, 5) }) })
	for id, s := range []uint64{5, 6, 7, 8, 9} {
		p.msg(5, func(m *pb) { m.uint(1, uint64(id+1)); m.uint(2, s); m.uint(3, s) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10e6) // period, ignored
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, total := prof.attribute()
	want := map[string]float64{"enclave": 0.030, "libos": 0.020, "runtime.gc": 0.010, "other": 0.005}
	if math.Abs(total-0.065) > 1e-9 || len(got) != len(want) {
		t.Fatalf("attribute = %v total %v, want %v total 0.065", got, total, want)
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, got[l], v)
		}
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// The decoder must read what runtime/pprof actually writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	probeSink += x
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prof.samples {
		if len(s.stack) == 0 || s.cpuNS <= 0 {
			t.Fatalf("sample %+v has no stack or no cpu time", s)
		}
	}
}
