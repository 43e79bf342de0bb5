package libos_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sgxgauge/internal/cache"
	"sgxgauge/internal/enclave"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/tlb"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/btree"
)

// TestCloneFieldCoverage pins the fields of every type a template
// clone copies. Each field carries the decision its Clone implements:
//
//   - copy:   deep or value copy, so the clone evolves independently;
//   - share:  the same pointer, safe because it is immutable (the MEE
//     engine's keys) or frozen (sealed pages, shared copy-on-write);
//   - rebind: replaced by the clone's own counterpart (its counters,
//     backing store, environment, hooks wired to the clone);
//   - reset:  left at its zero or fresh state, which is sound because
//     it is a cache, scratch, or state a cloneable object never has
//     (a tracer, chaos, a timeline).
//
// A new field fails this test until its Clone handles it and the
// decision is recorded here.
func TestCloneFieldCoverage(t *testing.T) {
	cases := []struct {
		typ    reflect.Type
		fields map[string]string
	}{
		{reflect.TypeOf(sgx.Machine{}), map[string]string{
			"cfg": "copy", "Costs": "copy", "Counters": "rebind", "Engine": "share",
			"Backing": "rebind", "EPC": "rebind", "LLC": "copy", "untrusted": "copy",
			"pool": "reset", "untrustedNext": "copy", "enclaves": "copy",
			"nextEnclave": "copy", "enclaveNext": "copy", "threads": "rebind",
			"pollutionPhase": "copy", "switchlessSeq": "copy", "tracer": "reset",
			"chaos": "reset", "rollbackStash": "reset", "fastWords": "copy",
		}},
		{reflect.TypeOf(sgx.Env{}), map[string]string{
			"M": "rebind", "Mode": "copy", "Enclave": "rebind", "Main": "rebind",
			"concurrency": "copy", "nextThread": "copy", "insideByDefault": "copy",
		}},
		{reflect.TypeOf(sgx.Thread{}), map[string]string{
			"ID": "copy", "Clock": "copy", "env": "rebind", "tlb": "copy",
			"shard": "rebind", "enclaveDepth": "copy",
			"memo": "reset", "memoGen": "reset",
		}},
		{reflect.TypeOf(epc.EPC{}), map[string]string{
			"capacity": "copy", "engine": "share", "backing": "rebind", "counters": "rebind",
			"crypt": "reset", "slots": "copy", "frames": "copy", "resident": "copy",
			"free": "copy", "hand": "copy",
			"versions": "copy", "verScratch": "reset", "ops": "copy",
			"onEvict": "rebind", "onRemove": "rebind", "onResize": "rebind", "tree": "copy",
			"timeline": "reset", "timelineEvery": "reset", "opsSinceTick": "reset", "clockRef": "reset",
			"jitter": "copy",
		}},
		{reflect.TypeOf(mem.BackingStore{}), map[string]string{
			"mu": "reset", "pages": "share", "free": "reset",
		}},
		{reflect.TypeOf(cache.LLC{}), map[string]string{
			"sets": "copy", "ways": "copy", "setMask": "copy", "setBits": "copy",
			"tags": "copy", "next": "copy", "way": "copy", "wayMask": "copy", "last": "copy",
			"epoch": "copy", "hits": "copy", "misses": "copy",
		}},
		{reflect.TypeOf(tlb.DTLB{}), map[string]string{
			"sets": "copy", "ways": "copy", "setMask": "copy", "tags": "copy",
			"epochs": "copy", "next": "copy", "epoch": "copy", "flushes": "copy",
		}},
		{reflect.TypeOf(enclave.Enclave{}), map[string]string{
			"ID": "copy", "Base": "copy", "SizePages": "copy", "Measurement": "copy",
			"heapNext": "copy", "hash": "copy", "launched": "copy", "abortCause": "copy",
			"digest": "reset", "hdr": "reset",
		}},
		{reflect.TypeOf(libos.Instance{}), map[string]string{
			"Env": "rebind", "Manifest": "rebind", "fs": "rebind", "fileHashes": "rebind",
			"verified": "reset", "StartupCycles": "copy", "StartupCounters": "copy",
		}},
	}
	for _, c := range cases {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			got = append(got, c.typ.Field(i).Name)
		}
		var want []string
		for name := range c.fields {
			want = append(want, name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v fields changed: have %s, clone decisions cover %s; decide how the clone handles each new field",
				c.typ, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
}

// outcome is what a run produces: the workload's output, the measured
// cycles and the full counter state.
type outcome struct {
	out      workloads.Output
	cycles   uint64
	counters perf.Snapshot
}

// runOn runs BTree at the High setting (footprint above the EPC, so
// the run evicts and loads back pages, the template's sealed ones
// included) on an instance produced by start from the workload's input
// files.
func runOn(t *testing.T, epcPages int, start func(fs *osal.FS, man libos.Manifest) (*libos.Instance, error)) outcome {
	w := btree.New()
	fs := osal.NewFS()
	ctx := &workloads.Ctx{RawFS: fs, Params: w.DefaultParams(epcPages, workloads.High), Seed: 1}
	if err := w.Setup(ctx); err != nil {
		t.Error(err)
		return outcome{}
	}
	inst, err := start(fs, libos.Manifest{Binary: w.Name(), Files: fs.List()})
	if err != nil {
		t.Error(err)
		return outcome{}
	}
	ctx.Env, ctx.LibOS, ctx.FS = inst.Env, inst, inst.FS()
	out, err := w.Run(ctx)
	if err != nil {
		t.Error(err)
	}
	return outcome{out, inst.Env.Elapsed() - inst.StartupCycles, inst.Env.Snapshot()}
}

// sealedImage deep-copies every sealed page the instance's enclave
// holds in the untrusted store: its ID, version, ciphertext (nil for a
// compact page) and MAC. The copy shares no storage with the store, so
// a later in-place write to a stored page shows up as a difference.
func sealedImage(inst *libos.Instance) map[mem.PageID]mem.SealedPage {
	enc := inst.Env.Enclave
	img := map[mem.PageID]mem.SealedPage{}
	for i := 0; i < enc.SizePages; i++ {
		id := enc.PageID(enc.Base + uint64(i)*mem.PageSize)
		if sp := inst.Env.M.Backing.Get(id); sp != nil {
			img[id] = *sp.Copy()
		}
	}
	return img
}

// TestConcurrentClonesOfOneTemplate runs a LibOS workload on eight
// concurrent clones of one booted template. Every run must equal a
// run on a fresh boot, and the template's sealed pages — shared
// copy-on-write with every clone — must come out untouched: a clone
// never writes or recycles a frozen page. Run under -race it also
// checks that cloning only reads the template.
func TestConcurrentClonesOfOneTemplate(t *testing.T) {
	const epcPages = 64
	cfg := sgx.Config{EPCPages: epcPages, Seed: 7}
	tpl, err := libos.Start(sgx.NewMachine(cfg), nil, libos.Manifest{Binary: "template"})
	if err != nil {
		t.Fatal(err)
	}
	before := sealedImage(tpl)
	if len(before) == 0 {
		t.Fatal("template holds no sealed pages; the boot should have evicted most of the enclave")
	}

	want := runOn(t, epcPages, func(fs *osal.FS, man libos.Manifest) (*libos.Instance, error) {
		return libos.Start(sgx.NewMachine(cfg), fs, man)
	})
	const clones = 8
	got := make([]outcome, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runOn(t, epcPages, tpl.Clone)
		}()
	}
	wg.Wait()
	for i, o := range got {
		if !reflect.DeepEqual(o, want) {
			t.Errorf("clone %d diverged from a fresh boot:\n got %+v\nwant %+v", i, o, want)
		}
	}
	if after := sealedImage(tpl); !reflect.DeepEqual(after, before) {
		t.Error("running clones changed the template's sealed pages")
	}
}

func TestCloneRejectsOtherEnclaveSize(t *testing.T) {
	tpl, err := libos.Start(sgx.NewMachine(sgx.Config{EPCPages: 32}), nil, libos.Manifest{Binary: "template"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Clone(osal.NewFS(), libos.Manifest{Binary: "app", EnclaveSizePages: 64}); err == nil {
		t.Error("clone of a template booted at another enclave size succeeded")
	}
	if _, err := tpl.Clone(osal.NewFS(), libos.Manifest{Binary: "app", Files: []string{"missing"}}); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Errorf("clone with a missing manifest file: err = %v, want not found", err)
	}
}

// TestBootSealsZeroHeapCompact checks where a LibOS boot's memory goes:
// the loader measures the whole enclave, evicting nearly every page
// while it is still all zero, and such pages are stored without their
// ciphertext. A clone shares those entries and still runs correctly
// (TestConcurrentClonesOfOneTemplate).
func TestBootSealsZeroHeapCompact(t *testing.T) {
	inst, err := libos.Start(sgx.NewMachine(sgx.Config{EPCPages: 64}), nil, libos.Manifest{Binary: "template"})
	if err != nil {
		t.Fatal(err)
	}
	compact := 0
	img := sealedImage(inst)
	for _, sp := range img {
		if sp.Ciphertext == nil {
			compact++
		}
	}
	t.Logf("%d of %d sealed pages compact", compact, len(img))
	if compact*100 < len(img)*90 {
		t.Errorf("%d of %d sealed pages compact, want at least 90%%", compact, len(img))
	}
}
