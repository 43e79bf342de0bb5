package epc

import (
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// overlayInst is one machine's sealed-page state under test — a
// seal-version index and a backing store — beside the plain maps that
// model them.
type overlayInst struct {
	vers      *verIdx
	store     *mem.BackingStore
	wantVers  map[mem.PageID]uint64
	wantPages map[mem.PageID]pageWant
}

// pageWant is what a stored page must hold: its version and the byte
// its whole ciphertext is filled with, 0 for a compact page. A page
// the MEE sealed has no fill pattern; sealed holds its ciphertext.
type pageWant struct {
	version uint64
	fill    byte
	sealed  *[mem.PageSize]byte
}

// frozenVers is a verIdx base as it was frozen, kept to prove that no
// later write reaches it.
type frozenVers struct {
	base     *verIdx
	snapshot verIdx
}

// frozenStore is a backing store's base as it was frozen, seen through
// a clone that nothing writes, with a deep copy of every page it held.
type frozenStore struct {
	witness  *mem.BackingStore
	snapshot map[mem.PageID]*mem.SealedPage // the page Get returned at freeze time
	copies   map[mem.PageID]mem.SealedPage  // deep copies of those pages
}

// overlayKey decodes one byte into a page of enclave 1–3.
func overlayKey(b byte) mem.PageID {
	return mem.PageID{Enclave: 1 + uint32(b%3), VPN: uint64(b / 3)}
}

// checkOverlayKey demands that inst's index and store agree with their
// models on id.
func checkOverlayKey(t *testing.T, step, n int, inst *overlayInst, id mem.PageID) {
	t.Helper()
	if got, want := inst.vers.get(id), inst.wantVers[id]; got != want {
		t.Fatalf("step %d, instance %d: verIdx.get(%v) = %d, want %d", step, n, id, got, want)
	}
	sp := inst.store.Get(id)
	want, ok := inst.wantPages[id]
	switch {
	case !ok && sp != nil:
		t.Fatalf("step %d, instance %d: Get(%v) = version %d, want no page", step, n, id, sp.Version)
	case ok && sp == nil:
		t.Fatalf("step %d, instance %d: Get(%v) = no page, want version %d", step, n, id, want.version)
	case !ok:
	case sp.ID != id || sp.Version != want.version:
		t.Fatalf("step %d, instance %d: Get(%v) = %v version %d, want version %d", step, n, id, sp.ID, sp.Version, want.version)
	case (sp.Ciphertext == nil) != want.compact():
		t.Fatalf("step %d, instance %d: Get(%v) compact = %v, want %v", step, n, id, sp.Ciphertext == nil, want.compact())
	case sp.Ciphertext != nil && sp.Ciphertext.Data != want.ciphertext():
		t.Fatalf("step %d, instance %d: Get(%v) ciphertext changed: a shared page was recycled or written", step, n, id)
	}
}

func (w pageWant) compact() bool { return w.sealed == nil && w.fill == 0 }

func (w pageWant) ciphertext() [mem.PageSize]byte {
	if w.sealed != nil {
		return *w.sealed
	}
	return filledPage(w.fill)
}

func filledPage(fill byte) (p [mem.PageSize]byte) {
	for i := range p {
		p[i] = fill
	}
	return p
}

// checkOverlay drives seal-version indexes and backing stores in
// lockstep with plain Go maps through the op stream ops (three bytes
// an op: kind, instance, key): set, Put, Delete, DropEnclave, Release,
// the EWB's Take and reseal of a retired record, a get of every
// instance after each op, a freeze at whatever step the stream picks,
// and clones of clones. Every instance must agree with its model
// throughout, Take must never hand out a frozen record or one any Get
// still returns, and once every instance has written its delta each
// frozen base must be exactly what it was when frozen.
func checkOverlay(t *testing.T, ops []byte) {
	const maxInsts = 6
	insts := []*overlayInst{{
		vers:      newVerIdx(),
		store:     mem.NewBackingStore(),
		wantVers:  map[mem.PageID]uint64{},
		wantPages: map[mem.PageID]pageWant{},
	}}
	var frozenIdx []frozenVers
	var frozenStores []frozenStore
	var scratch []mem.PageID
	crypt := mee.New(1).NewBatch()
	for step := 0; step+3 <= len(ops); step += 3 {
		kind, n, key := ops[step]%9, int(ops[step+1])%len(insts), ops[step+2]
		inst, id := insts[n], overlayKey(key)
		switch kind {
		case 0: // seal a new version
			v := uint64(step) + 1
			inst.vers.set(id, v)
			inst.wantVers[id] = v
		case 1: // store a sealed page, compact when its fill is 0
			fill := byte(step / 3 % 5)
			sp := &mem.SealedPage{ID: id, Version: uint64(step) + 1}
			if fill != 0 {
				sp.Ciphertext = mem.NewFrame()
				sp.Ciphertext.Data = filledPage(fill)
			}
			inst.store.Put(sp)
			inst.wantPages[id] = pageWant{version: sp.Version, fill: fill}
		case 2: // load back: the sealed page leaves the store
			inst.store.Delete(id)
			delete(inst.wantPages, id)
		case 3: // enclave teardown
			scratch = inst.vers.dropEnclave(id.Enclave, scratch)
			inst.store.DropEnclave(id.Enclave)
			for k := range inst.wantVers {
				if k.Enclave == id.Enclave {
					delete(inst.wantVers, k)
				}
			}
			for k := range inst.wantPages {
				if k.Enclave == id.Enclave {
					delete(inst.wantPages, k)
				}
			}
		case 4: // freeze, once per instance
			if inst.vers.base != nil {
				continue
			}
			inst.vers.freeze()
			fv := frozenVers{base: inst.vers.base, snapshot: *inst.vers.base}
			fv.snapshot.ids = slices.Clone(fv.base.ids)
			fv.snapshot.vers = slices.Clone(fv.base.vers)
			frozenIdx = append(frozenIdx, fv)
			inst.store.Freeze()
			fs := frozenStore{witness: inst.store.Clone(), snapshot: map[mem.PageID]*mem.SealedPage{}, copies: map[mem.PageID]mem.SealedPage{}}
			for k := 0; k < 256; k++ {
				pid := overlayKey(byte(k))
				if sp := fs.witness.Get(pid); sp != nil {
					fs.snapshot[pid] = sp
					fs.copies[pid] = *sp.Copy()
				}
			}
			frozenStores = append(frozenStores, fs)
		case 5, 6: // clone, of a clone too
			if len(insts) == maxInsts {
				continue
			}
			insts = append(insts, &overlayInst{
				vers:      inst.vers.clone(),
				store:     inst.store.Clone(),
				wantVers:  maps.Clone(inst.wantVers),
				wantPages: maps.Clone(inst.wantPages),
			})
		case 7: // the run ends: its store is released
			if len(insts) == 1 {
				continue
			}
			inst.store.Release()
			insts = append(insts[:n], insts[n+1:]...)
		case 8: // an eviction: reseal a record the store retired
			sp := inst.store.Take()
			checkTaken(t, step/3, sp, insts, frozenStores)
			var f mem.Frame
			if fill := byte(step / 3 % 5); fill != 0 {
				f.Data = filledPage(fill)
			}
			crypt.SealPageInto(sp, id, uint64(step)+1, &f)
			inst.store.Put(sp)
			want := pageWant{version: sp.Version}
			if sp.Ciphertext != nil {
				want.sealed = new([mem.PageSize]byte)
				*want.sealed = sp.Ciphertext.Data
			}
			inst.wantPages[id] = want
		}
		for i, in := range insts {
			checkOverlayKey(t, step/3, i, in, id)
		}
	}
	for i, in := range insts {
		for k := 0; k < 256; k++ {
			checkOverlayKey(t, len(ops)/3, i, in, overlayKey(byte(k)))
		}
	}
	for i, fv := range frozenIdx {
		if !reflect.DeepEqual(*fv.base, fv.snapshot) {
			t.Fatalf("frozen verIdx base %d changed after its clones wrote their deltas", i)
		}
	}
	for i, fs := range frozenStores {
		for k := 0; k < 256; k++ {
			pid := overlayKey(byte(k))
			sp := fs.witness.Get(pid)
			if sp != fs.snapshot[pid] {
				t.Fatalf("frozen store base %d: entry %v changed after its clones wrote their deltas", i, pid)
			}
			if sp == nil {
				continue
			}
			if !sp.Frozen() || !reflect.DeepEqual(*sp.Copy(), fs.copies[pid]) {
				t.Fatalf("frozen store base %d: page %v was written or recycled", i, pid)
			}
		}
	}
}

// checkTaken demands that a record Take handed out is the caller's
// alone: not frozen, not a page of any frozen base, and not what any
// instance's Get returns for a page its model holds.
func checkTaken(t *testing.T, step int, sp *mem.SealedPage, insts []*overlayInst, frozen []frozenStore) {
	t.Helper()
	if sp.Frozen() {
		t.Fatalf("step %d: Take handed out a frozen record (%v)", step, sp.ID)
	}
	for _, fs := range frozen {
		for _, p := range fs.snapshot {
			if p == sp {
				t.Fatalf("step %d: Take handed out a page of a frozen base (%v)", step, sp.ID)
			}
		}
	}
	for i, in := range insts {
		for pid := range in.wantPages {
			if in.store.Get(pid) == sp {
				t.Fatalf("step %d: Take handed out the record instance %d still returns for %v", step, i, pid)
			}
		}
	}
}

// TestSealOverlayMatchesMap runs checkOverlay over random op streams.
func TestSealOverlayMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for round := 0; round < 300; round++ {
		ops := make([]byte, 3*(1+rng.Intn(400)))
		rng.Read(ops)
		checkOverlay(t, ops)
	}
}

// FuzzSealOverlay is checkOverlay under the fuzzer.
func FuzzSealOverlay(f *testing.F) {
	f.Add([]byte{0, 0, 7, 1, 0, 7, 4, 0, 0, 5, 0, 0, 2, 1, 7, 3, 1, 7, 0, 1, 7})
	f.Add([]byte{1, 0, 9, 5, 0, 0, 4, 1, 0, 5, 1, 0, 2, 2, 9, 7, 1, 0, 1, 2, 9})
	f.Add([]byte{1, 0, 4, 2, 0, 4, 8, 0, 5, 4, 0, 0, 5, 0, 0, 2, 1, 5, 8, 1, 6, 2, 0, 5, 8, 0, 4, 7, 1, 0})
	f.Fuzz(checkOverlay)
}

// TestFrozenCloneCostsItsDelta: cloning a frozen EPC and its backing
// store allocates the same small amount however many pages were
// sealed before the freeze, because the clone shares the frozen
// seal-version index and sealed pages instead of copying one entry per
// page. The clone still loads back a frozen page.
func TestFrozenCloneCostsItsDelta(t *testing.T) {
	const sealed = 10240
	e, _, clk, costs := newTestEPC(MinCapacity)
	for vpn := uint64(0); vpn < sealed; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	// Seal out the resident pages too, so the clone copies no frame.
	for i := range e.slots {
		if s := e.slots[i]; s.used {
			if _, err := e.EvictPage(clk, &costs, s.id); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Freeze()
	e.backing.Freeze()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := e.Clone(e.backing.Clone(), &perf.Counters{})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("cloning a frozen EPC holding %d sealed pages allocated %d bytes, want at most 64 KiB", sealed, got)
	}
	f, loaded, err := c.Fault(clk, &costs, id(sealed/2))
	if err != nil || !loaded || f.Data != ([mem.PageSize]byte{}) {
		t.Fatalf("clone fault of a frozen page: loaded=%v err=%v", loaded, err)
	}
	if e.backing.Get(id(sealed/2)) == nil {
		t.Fatal("the clone's load-back removed the page from the frozen source")
	}
}
