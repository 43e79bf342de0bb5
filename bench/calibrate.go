package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"sync"
	"time"
)

// calibrationRef is the calibration kernel's time, in seconds, at the
// reference speed end-to-end times are reported at: about its fastest
// time on a quiet 2-vCPU Xeon VM.
const calibrationRef = 0.020

// slowdownExponent relates the kernel's slowdown to the simulator's:
// when the kernel runs k times slower than calibrationRef, the
// simulator runs about k^0.75 times slower. Fitted over runs of every
// workload while the kernel's time ranged over 20-80 ms (README.md,
// "Reference speed").
const slowdownExponent = 0.75

// kernel is the calibration kernel: on each of two goroutines, random
// reads over an 8 MiB table, then SHA-256 and AES-GCM over 6 MiB, the
// mix of memory-bound and compute-bound work the simulator runs (a
// paper rep spends about 40% of its CPU in SHA-256 and AES-GCM); of
// the kernels tried, its slowdown tracked the simulator's most closely
// (README.md, "Reference speed"). A shared machine slows down and
// speeds up with its other tenants over minutes, and its two vCPUs do
// not always slow alike; the parent times this kernel before every
// rep, so each workload's end-to-end times can be reported at the
// reference speed. Like the workloads it runs on both vCPUs, and its
// buffers are allocated once, because fresh pages would add page
// faults, which a loaded VM slows far more than it slows the
// simulator.
type kernel struct {
	lanes [2]lane
}

type lane struct {
	table    []uint64
	buf, out []byte
	sink     uint64
}

func newKernel() *kernel {
	k := &kernel{}
	for i := range k.lanes {
		k.lanes[i] = lane{table: make([]uint64, 1<<20), buf: make([]byte, 6<<20), out: make([]byte, 0, 6<<20+16)}
	}
	return k
}

// time runs the kernel once and returns the mean of the two lanes'
// wall times in seconds.
func (k *kernel) time() float64 {
	var took [2]time.Duration
	var wg sync.WaitGroup
	for i := range k.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			k.lanes[i].run()
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	return (took[0] + took[1]).Seconds() / 2
}

func (l *lane) run() {
	x := xorshift(0x9e3779b97f4a7c15)
	for i := range l.table {
		l.table[i] = x.next()
	}
	for i := 0; i < 1<<20; i++ {
		l.sink += l.table[x.next()%uint64(len(l.table))]
	}
	digest := sha256.Sum256(l.buf)
	block, err := aes.NewCipher(digest[:16])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	l.out = gcm.Seal(l.out[:0], digest[:gcm.NonceSize()], l.buf, nil)
	l.sink += uint64(l.out[0])
}
