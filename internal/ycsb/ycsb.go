// Package ycsb generates YCSB-style key-value workloads: a load phase
// that populates the store with a given number of records, then a run
// phase issuing a mix of reads and updates over keys drawn from a
// zipfian or uniform distribution (paper §4.2.7: "YCSB first populates
// Memcached with a specified amount of data and then performs a
// specified set of (read or write) operations").
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is the type of one generated operation.
type OpKind int

const (
	// OpRead fetches a record.
	OpRead OpKind = iota
	// OpUpdate overwrites a record's value.
	OpUpdate
	// OpInsert adds a new record.
	OpInsert
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Distribution selects how run-phase keys are drawn.
type Distribution int

const (
	// Uniform draws keys uniformly over the loaded records.
	Uniform Distribution = iota
	// Zipfian draws keys with the classic YCSB zipfian skew
	// (theta = 0.99), concentrating traffic on hot records.
	Zipfian
)

// Workload describes one YCSB workload.
type Workload struct {
	// Records is the number of records loaded before the run phase.
	Records int
	// Operations is the number of run-phase operations.
	Operations int
	// ReadProportion in [0,1] (workload A is 0.5, workload B is
	// 0.95); InsertProportion in [0,1] adds workload-D-style inserts
	// of fresh keys. The remainder are updates.
	ReadProportion float64
	// InsertProportion in [0, 1-ReadProportion].
	InsertProportion float64
	// Dist selects the key distribution.
	Dist Distribution
	// ValueSize is the record payload size in bytes.
	ValueSize int
	// Seed makes generation deterministic.
	Seed int64
}

// Validate reports configuration errors.
func (w Workload) Validate() error {
	if w.Records <= 0 || w.Operations < 0 {
		return fmt.Errorf("ycsb: invalid sizes records=%d operations=%d", w.Records, w.Operations)
	}
	if w.ReadProportion < 0 || w.ReadProportion > 1 {
		return fmt.Errorf("ycsb: read proportion %v out of [0,1]", w.ReadProportion)
	}
	if w.InsertProportion < 0 || w.ReadProportion+w.InsertProportion > 1 {
		return fmt.Errorf("ycsb: insert proportion %v leaves no room after reads", w.InsertProportion)
	}
	if w.ValueSize <= 0 {
		return fmt.Errorf("ycsb: invalid value size %d", w.ValueSize)
	}
	return nil
}

// Generator produces the operation stream for a workload.
type Generator struct {
	w        Workload
	rng      *rand.Rand
	zip      *zipf
	inserted uint64
}

// NewGenerator builds a generator; Validate must have passed.
func NewGenerator(w Workload) *Generator {
	g := &Generator{w: w, rng: rand.New(rand.NewSource(w.Seed))}
	if w.Dist == Zipfian {
		g.zip = newZipf(g.rng, uint64(w.Records), 0.99)
	}
	return g
}

// Next returns the next run-phase operation. Inserted keys extend the
// key space sequentially past the loaded records (YCSB workload D
// style).
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	if r < g.w.InsertProportion {
		key := uint64(g.w.Records) + g.inserted
		g.inserted++
		return Op{Kind: OpInsert, Key: key}
	}
	var key uint64
	if g.zip != nil {
		key = g.zip.next()
	} else {
		key = uint64(g.rng.Intn(g.w.Records))
	}
	if r < g.w.InsertProportion+g.w.ReadProportion {
		return Op{Kind: OpRead, Key: key}
	}
	return Op{Kind: OpUpdate, Key: key}
}

// zipf implements the YCSB "ScrambledZipfian"-style generator: a
// zipfian rank distribution permuted over the key space so hot keys
// are spread out rather than clustered at low IDs. The permutation is
// a bijection (an affine map with a multiplier coprime to n), so no
// two ranks collapse onto one key.
type zipf struct {
	rng   *rand.Rand
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	mult  uint64
}

func newZipf(rng *rand.Rand, n uint64, theta float64) *zipf {
	z := &zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.mult = 0x9e3779b97f4a7c15 % n
	for z.mult == 0 || gcd(z.mult, n) != 1 {
		z.mult = (z.mult + 1) % n
	}
	return z
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// Permute the rank across the key space (bijective affine map).
	return (rank*z.mult + 0x2545f4914f6cdd1d%z.n) % z.n
}
