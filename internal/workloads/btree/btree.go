// Package btree implements the B-Tree workload of SGXGauge (§4.2.3):
// a real B-tree living in the simulated enclave address space, built
// from a configured number of elements and then probed with random
// find operations. Its pointer-chasing page accesses are what make it
// "designed to stress the EPC and the paging system".
package btree

import (
	"fmt"
	"math/rand"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// Node layout: each node occupies exactly one page.
//
//	offset 0:   u32 nkeys
//	offset 4:   u32 leaf (1 = leaf)
//	offset 8:   keys  [maxKeys]u64
//	offset 8+8*maxKeys: children [maxKeys+1]u64 (page addresses)
const (
	maxKeys     = 200
	minKeys     = maxKeys / 2
	keysOff     = 8
	childrenOff = keysOff + 8*maxKeys
)

// bytesPerElement approximates the tree bytes actually touched per
// stored key at ~70% node fill, used to derive element counts from
// footprint targets. regionBytesPerElement adds allocation slack for
// fill-factor variance; the slack pages are never touched so they do
// not perturb the working set.
const (
	bytesPerElement       = 30
	regionBytesPerElement = 38
)

// Workload is the B-Tree benchmark.
type Workload struct{}

// New returns the workload.
func New() *Workload { return &Workload{} }

// Name implements workloads.Workload.
func (*Workload) Name() string { return "BTree" }

// Property implements workloads.Workload.
func (*Workload) Property() string { return "Data/CPU-intensive" }

// NativePort implements workloads.Workload; B-Tree is one of the six
// ported workloads.
func (*Workload) NativePort() bool { return true }

// footprintRatios mirrors Table 2's 1M/1.5M/2M elements against the
// 92 MB EPC.
var footprintRatios = map[workloads.Size]float64{
	workloads.Low:    0.78,
	workloads.Medium: 1.17,
	workloads.High:   1.56,
}

// DefaultParams implements workloads.Workload.
func (*Workload) DefaultParams(epcPages int, s workloads.Size) workloads.Params {
	bytes := workloads.BytesForRatio(epcPages, footprintRatios[s])
	elements := bytes / bytesPerElement
	return workloads.Params{
		Size:    s,
		Threads: 1,
		Knobs: map[string]int64{
			"elements": elements,
			"finds":    elements / 2,
		},
	}
}

// FootprintPages implements workloads.Workload.
func (*Workload) FootprintPages(p workloads.Params) (int, error) {
	elements, err := p.Knob("elements")
	if err != nil {
		return 0, err
	}
	return int(elements*regionBytesPerElement/mem.PageSize + 8), nil
}

// Setup implements workloads.Workload; B-Tree needs no host-side
// preparation.
func (*Workload) Setup(ctx *workloads.Ctx) error { return nil }

// tree is a B-tree whose nodes live in the simulated address space.
type tree struct {
	t        *sgx.Thread
	root     uint64
	nextPage uint64
	limit    uint64
	// shift is scratch for moveRun's bulk key/child moves.
	shift [maxKeys + 1]uint64
}

// moveRun copies cnt consecutive u64 slots from src to dst as one
// read extent plus one write extent — the bulk form of the shift
// loops in splitChild and Insert. The full run is staged in scratch
// before any write, so overlapping moves are safe in either
// direction; the access count matches the per-slot loop it replaces.
func (tr *tree) moveRun(src, dst uint64, cnt int) {
	if cnt <= 0 {
		return
	}
	buf := tr.shift[:cnt]
	tr.t.ReadU64Run(src, buf)
	tr.t.WriteU64Run(dst, buf)
}

func newTree(t *sgx.Thread, region uint64, regionBytes uint64) *tree {
	tr := &tree{t: t, nextPage: region, limit: region + regionBytes}
	tr.root = tr.allocNode(true)
	return tr
}

func (tr *tree) allocNode(leaf bool) uint64 {
	if tr.nextPage+mem.PageSize > tr.limit {
		panic("btree: node region exhausted")
	}
	addr := tr.nextPage
	tr.nextPage += mem.PageSize
	tr.t.WriteU32(addr, 0)
	l := uint32(0)
	if leaf {
		l = 1
	}
	tr.t.WriteU32(addr+4, l)
	return addr
}

func (tr *tree) nkeys(n uint64) int       { return int(tr.t.ReadU32(n)) }
func (tr *tree) setNKeys(n uint64, v int) { tr.t.WriteU32(n, uint32(v)) }
func (tr *tree) isLeaf(n uint64) bool     { return tr.t.ReadU32(n+4) == 1 }

// header reads a node's packed header — nkeys and the leaf flag are
// adjacent u32s — in a single aligned access, the way a real port
// would pull in the whole header word it is about to branch on.
func (tr *tree) header(n uint64) (nk int, leaf bool) {
	h := tr.t.ReadU64(n)
	return int(uint32(h)), uint32(h>>32) == 1
}
func (tr *tree) key(n uint64, i int) uint64 {
	return tr.t.ReadU64(n + keysOff + uint64(8*i))
}
func (tr *tree) setKey(n uint64, i int, k uint64) {
	tr.t.WriteU64(n+keysOff+uint64(8*i), k)
}
func (tr *tree) child(n uint64, i int) uint64 {
	return tr.t.ReadU64(n + childrenOff + uint64(8*i))
}
func (tr *tree) setChild(n uint64, i int, c uint64) {
	tr.t.WriteU64(n+childrenOff+uint64(8*i), c)
}

// findSlot binary-searches node n (holding nk keys) for k, returning
// the first index with key >= k. The caller supplies nk from its
// header read so the header is touched once per level.
func (tr *tree) findSlot(n uint64, nk int, k uint64) int {
	lo, hi := 0, nk
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.key(n, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether k is in the tree.
func (tr *tree) Contains(k uint64) bool {
	n := tr.root
	for {
		nk, leaf := tr.header(n)
		i := tr.findSlot(n, nk, k)
		if i < nk && tr.key(n, i) == k {
			return true
		}
		if leaf {
			return false
		}
		n = tr.child(n, i)
	}
}

// splitChild splits the full i-th child of parent, which holds pn
// keys (from the caller's header read).
func (tr *tree) splitChild(parent uint64, i, pn int) {
	full := tr.child(parent, i)
	leaf := tr.isLeaf(full)
	right := tr.allocNode(leaf)
	midKey := tr.key(full, minKeys)

	// Move the upper keys (and children) of full to right, one bulk
	// run each.
	rk := maxKeys - minKeys - 1
	tr.moveRun(full+keysOff+uint64(8*(minKeys+1)), right+keysOff, rk)
	if !leaf {
		tr.moveRun(full+childrenOff+uint64(8*(minKeys+1)), right+childrenOff, rk+1)
	}
	tr.setNKeys(right, rk)
	tr.setNKeys(full, minKeys)

	// Shift parent entries to make room.
	tr.moveRun(parent+keysOff+uint64(8*i), parent+keysOff+uint64(8*(i+1)), pn-i)
	tr.moveRun(parent+childrenOff+uint64(8*(i+1)), parent+childrenOff+uint64(8*(i+2)), pn-i)
	tr.setKey(parent, i, midKey)
	tr.setChild(parent, i+1, right)
	tr.setNKeys(parent, pn+1)
}

// Insert adds k to the tree (duplicates are kept; the workload's keys
// are unique by construction). Each level reads its node header once
// and carries (nkeys, leaf) down the descent.
func (tr *tree) Insert(k uint64) {
	nk, leaf := tr.header(tr.root)
	if nk == maxKeys {
		newRoot := tr.allocNode(false)
		tr.setChild(newRoot, 0, tr.root)
		tr.root = newRoot
		tr.splitChild(newRoot, 0, 0)
		nk, leaf = tr.header(tr.root)
	}
	n := tr.root
	for {
		i := tr.findSlot(n, nk, k)
		if leaf {
			tr.moveRun(n+keysOff+uint64(8*i), n+keysOff+uint64(8*(i+1)), nk-i)
			tr.setKey(n, i, k)
			tr.setNKeys(n, nk+1)
			return
		}
		if i < nk && tr.key(n, i) == k {
			i++ // equal keys descend right
		}
		child := tr.child(n, i)
		cnk, cleaf := tr.header(child)
		if cnk == maxKeys {
			tr.splitChild(n, i, nk)
			if k > tr.key(n, i) {
				i++
			}
			child = tr.child(n, i)
			cnk, cleaf = tr.header(child)
		}
		n, nk, leaf = child, cnk, cleaf
	}
}

// Run implements workloads.Workload.
func (w *Workload) Run(ctx *workloads.Ctx) (workloads.Output, error) {
	p := ctx.Params
	elements, err := p.Knob("elements")
	if err != nil {
		return workloads.Output{}, err
	}
	finds, err := p.Knob("finds")
	if err != nil {
		return workloads.Output{}, err
	}
	if elements <= 0 {
		return workloads.Output{}, fmt.Errorf("btree: elements must be positive, got %d", elements)
	}

	foot, err := w.FootprintPages(p)
	if err != nil {
		return workloads.Output{}, err
	}
	regionBytes := uint64(foot) * mem.PageSize
	region, err := ctx.Env.Alloc(regionBytes, mem.PageSize)
	if err != nil {
		return workloads.Output{}, fmt.Errorf("btree: allocating node region: %w", err)
	}
	t := ctx.Env.Main
	rng := rand.New(rand.NewSource(ctx.Seed))

	var tr *tree
	// Build phase: one enclave entry covers the whole build in the
	// ported version.
	t.ECall(func() {
		tr = newTree(t, region, regionBytes)
		for i := int64(0); i < elements; i++ {
			tr.Insert(workloads.Mix64(uint64(i)))
		}
	})

	// Find phase: batches of lookups per ECALL, half hitting, half
	// missing.
	var checksum uint64
	var found int64
	const batch = 256
	var buf [batch]uint64
	for done := int64(0); done < finds; done += batch {
		n := batch
		if finds-done < batch {
			n = int(finds - done)
		}
		keys := buf[:n]
		for i := range keys {
			if rng.Intn(2) == 0 {
				keys[i] = workloads.Mix64(uint64(rng.Int63n(elements)))
			} else {
				keys[i] = workloads.Mix64(uint64(elements + rng.Int63n(elements)))
			}
		}
		t.ECall(func() {
			for _, k := range keys {
				if tr.Contains(k) {
					found++
					checksum = workloads.FoldChecksum(checksum, k)
				}
			}
		})
	}
	return workloads.Output{
		Checksum: checksum,
		Ops:      finds,
		Extra:    map[string]float64{"found": float64(found)},
	}, nil
}
