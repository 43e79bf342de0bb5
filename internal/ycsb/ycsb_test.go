package ycsb

import (
	"math"
	"testing"
)

func baseWorkload() Workload {
	return Workload{
		Records:        1000,
		Operations:     10000,
		ReadProportion: 0.5,
		Dist:           Zipfian,
		ValueSize:      128,
		Seed:           7,
	}
}

func TestValidate(t *testing.T) {
	good := baseWorkload()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Workload){
		"zero records":    func(w *Workload) { w.Records = 0 },
		"negative ops":    func(w *Workload) { w.Operations = -1 },
		"bad proportion":  func(w *Workload) { w.ReadProportion = 1.5 },
		"zero value size": func(w *Workload) { w.ValueSize = 0 },
	} {
		w := baseWorkload()
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := NewGenerator(baseWorkload()), NewGenerator(baseWorkload())
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("op %d differs across generators with the same seed", i)
		}
	}
}

func TestKeysInRange(t *testing.T) {
	w := baseWorkload()
	g := NewGenerator(w)
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Key >= uint64(w.Records) {
			t.Fatalf("key %d out of range [0,%d)", op.Key, w.Records)
		}
	}
}

func TestReadProportion(t *testing.T) {
	for _, p := range []float64{0.0, 0.5, 0.95, 1.0} {
		w := baseWorkload()
		w.ReadProportion = p
		g := NewGenerator(w)
		reads := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if g.Next().Kind == OpRead {
				reads++
			}
		}
		got := float64(reads) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("read fraction = %.3f, want %.2f", got, p)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	w := baseWorkload()
	g := NewGenerator(w)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// The hottest 1% of keys must draw far more than 1% of traffic.
	hot := topShare(counts, w.Records/100, n)
	if hot < 0.10 {
		t.Errorf("top 1%% of keys draw %.1f%% of zipfian traffic, want >10%%", hot*100)
	}

	w.Dist = Uniform
	g = NewGenerator(w)
	counts = map[uint64]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	uni := topShare(counts, w.Records/100, n)
	if uni > 0.05 {
		t.Errorf("top 1%% of keys draw %.1f%% of uniform traffic, want ~1%%", uni*100)
	}
	if hot < 3*uni {
		t.Errorf("zipfian (%.3f) not clearly more skewed than uniform (%.3f)", hot, uni)
	}
}

func topShare(counts map[uint64]int, k, total int) float64 {
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, c)
	}
	// Selection by simple sort (test-sized data).
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] > vals[i] {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	}
	sum := 0
	for i := 0; i < k && i < len(vals); i++ {
		sum += vals[i]
	}
	return float64(sum) / float64(total)
}

func TestZipfianCoversKeySpace(t *testing.T) {
	w := baseWorkload()
	w.Records = 50
	g := NewGenerator(w)
	seen := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		seen[g.Next().Key] = true
	}
	// Scrambling should spread hot ranks across the space; almost
	// every key should appear at least once.
	if len(seen) < 40 {
		t.Errorf("only %d/50 keys ever drawn", len(seen))
	}
}
