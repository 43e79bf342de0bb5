package epc

import "sgxgauge/internal/mem"

// pageIdx maps resident PageIDs to slot indices. It replaces a Go map
// on the EPC's hottest paths (every page walk, fault and eviction
// probes it): open addressing with linear probing and backward-shift
// deletion keeps a lookup to one hash and, at the enforced load
// factor, one or two cache-line touches. The table never iterates —
// the EPC walks its slot array when it needs deterministic order — so
// the only operations are get, put, del and len.
type pageIdx struct {
	ids  []mem.PageID
	idxs []int32 // slot index of ids[i]; -1 marks an empty cell
	mask uint64
	n    int
}

// newPageIdx sizes the table for up to capacity live entries at a
// load factor of at most ½ (the capacity is fixed by the EPC size, so
// the table never needs to grow mid-run).
func newPageIdx(capacity int) *pageIdx {
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	p := &pageIdx{
		ids:  make([]mem.PageID, size),
		idxs: make([]int32, size),
		mask: uint64(size - 1),
	}
	for i := range p.idxs {
		p.idxs[i] = -1
	}
	return p
}

// clone returns an independent copy of the table.
func (p *pageIdx) clone() *pageIdx {
	c := *p
	c.ids = append([]mem.PageID(nil), p.ids...)
	c.idxs = append([]int32(nil), p.idxs...)
	return &c
}

func hashPageID(id mem.PageID) uint64 {
	h := id.VPN*0x9e3779b97f4a7c15 ^ uint64(id.Enclave)*0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

func (p *pageIdx) len() int { return p.n }

// get returns the slot index stored for id.
func (p *pageIdx) get(id mem.PageID) (int, bool) {
	i := hashPageID(id) & p.mask
	for p.idxs[i] >= 0 {
		if p.ids[i] == id {
			return int(p.idxs[i]), true
		}
		i = (i + 1) & p.mask
	}
	return 0, false
}

// put inserts or updates id's slot index.
func (p *pageIdx) put(id mem.PageID, idx int) {
	i := hashPageID(id) & p.mask
	for p.idxs[i] >= 0 {
		if p.ids[i] == id {
			p.idxs[i] = int32(idx)
			return
		}
		i = (i + 1) & p.mask
	}
	if 2*(p.n+1) > len(p.idxs) {
		// The EPC never holds more pages than the capacity the table
		// was sized for; hitting this means a bookkeeping bug, not
		// load.
		panic("epc: pageIdx over capacity")
	}
	p.ids[i] = id
	p.idxs[i] = int32(idx)
	p.n++
}

// verIdx maps each page that has ever been sealed out to the version
// of its most recent seal. Same open-addressing scheme as pageIdx,
// but growable (the set of ever-evicted pages is not bounded by the
// EPC capacity) and with version 0 marking an empty cell — sealed
// versions start at 1, so 0 never collides with a live entry. get on
// a missing id returns 0, matching the Go-map semantics the EPC's
// version bookkeeping was written against.
type verIdx struct {
	ids  []mem.PageID
	vers []uint64 // vers[i] == 0 marks an empty cell
	mask uint64
	n    int
}

func newVerIdx() *verIdx {
	return &verIdx{
		ids:  make([]mem.PageID, 64),
		vers: make([]uint64, 64),
		mask: 63,
	}
}

// clone returns an independent copy of the table.
func (p *verIdx) clone() *verIdx {
	c := *p
	c.ids = append([]mem.PageID(nil), p.ids...)
	c.vers = append([]uint64(nil), p.vers...)
	return &c
}

// get returns the stored version for id, or 0 when absent.
func (p *verIdx) get(id mem.PageID) uint64 {
	i := hashPageID(id) & p.mask
	for p.vers[i] != 0 {
		if p.ids[i] == id {
			return p.vers[i]
		}
		i = (i + 1) & p.mask
	}
	return 0
}

// set inserts or updates id's version. v must be non-zero.
func (p *verIdx) set(id mem.PageID, v uint64) {
	if v == 0 {
		panic("epc: verIdx version 0")
	}
	i := hashPageID(id) & p.mask
	for p.vers[i] != 0 {
		if p.ids[i] == id {
			p.vers[i] = v
			return
		}
		i = (i + 1) & p.mask
	}
	if 2*(p.n+1) > len(p.vers) {
		p.grow()
		i = hashPageID(id) & p.mask
		for p.vers[i] != 0 {
			i = (i + 1) & p.mask
		}
	}
	p.ids[i] = id
	p.vers[i] = v
	p.n++
}

// grow doubles the table and reinserts every live entry.
func (p *verIdx) grow() {
	oldIDs, oldVers := p.ids, p.vers
	size := 2 * len(oldVers)
	p.ids = make([]mem.PageID, size)
	p.vers = make([]uint64, size)
	p.mask = uint64(size - 1)
	for k, v := range oldVers {
		if v == 0 {
			continue
		}
		i := hashPageID(oldIDs[k]) & p.mask
		for p.vers[i] != 0 {
			i = (i + 1) & p.mask
		}
		p.ids[i] = oldIDs[k]
		p.vers[i] = v
	}
}

// del removes id, if present, with backward-shift compaction.
func (p *verIdx) del(id mem.PageID) {
	i := hashPageID(id) & p.mask
	for {
		if p.vers[i] == 0 {
			return
		}
		if p.ids[i] == id {
			break
		}
		i = (i + 1) & p.mask
	}
	p.n--
	for {
		p.vers[i] = 0
		j := i
		for {
			j = (j + 1) & p.mask
			if p.vers[j] == 0 {
				return
			}
			k := hashPageID(p.ids[j]) & p.mask
			if (j-k)&p.mask >= (j-i)&p.mask {
				p.ids[i] = p.ids[j]
				p.vers[i] = p.vers[j]
				i = j
				break
			}
		}
	}
}

// dropEnclave removes every entry belonging to the enclave. Matches
// are collected before deletion because backward-shift compaction
// moves entries during a sweep. The (possibly grown) scratch slice is
// returned so the caller can reuse its capacity.
func (p *verIdx) dropEnclave(enclave uint32, scratch []mem.PageID) []mem.PageID {
	scratch = scratch[:0]
	for i, v := range p.vers {
		if v != 0 && p.ids[i].Enclave == enclave {
			scratch = append(scratch, p.ids[i])
		}
	}
	for _, id := range scratch {
		p.del(id)
	}
	return scratch
}

// del removes id, compacting the probe cluster (backward-shift
// deletion) so lookups never need tombstones.
func (p *pageIdx) del(id mem.PageID) {
	i := hashPageID(id) & p.mask
	for {
		if p.idxs[i] < 0 {
			return // not present
		}
		if p.ids[i] == id {
			break
		}
		i = (i + 1) & p.mask
	}
	p.n--
	for {
		p.idxs[i] = -1
		j := i
		for {
			j = (j + 1) & p.mask
			if p.idxs[j] < 0 {
				return
			}
			// Entry j may move into the hole at i only if its home
			// cell is not cyclically inside (i, j] — the standard
			// linear-probing invariant.
			k := hashPageID(p.ids[j]) & p.mask
			if (j-k)&p.mask >= (j-i)&p.mask {
				p.ids[i] = p.ids[j]
				p.idxs[i] = p.idxs[j]
				i = j
				break
			}
		}
	}
}
