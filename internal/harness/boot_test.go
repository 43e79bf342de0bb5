package harness

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// runBooted executes specs as one serial batch on a fresh Runner and
// reports, per spec, whether its boot was cloned from a template.
func runBooted(t *testing.T, specs []Spec) ([]Result, []bool) {
	t.Helper()
	cloned := make([]bool, len(specs))
	results := runFresh(1, specs, OnProgress(func(p Progress) {
		cloned[p.Index] = p.Cloned
	}))
	return results, cloned
}

// diffResults names the Result fields on which a and b differ.
func diffResults(a, b Result) []string {
	var diff []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, va.Type().Field(i).Name)
		}
	}
	return diff
}

// mustRunInPlace runs spec on a machine of its own, the reference
// every cloned boot must equal.
func mustRunInPlace(t *testing.T, spec Spec) *Result {
	t.Helper()
	res, cloned, err := runOne(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cloned {
		t.Fatal("runOne with no boot cache cloned its boot")
	}
	return res
}

// TestClonedBootMatchesInPlace is the differential for shared LibOS
// boots: each spec booted in place and the same spec run behind a
// sibling that shares its boot key (so the sibling builds the template
// and both run on clones of it) must give deep-equal Results — cycles,
// startup split, every counter set, output, op stats and timeline.
// The spec then boots in place once more, on page buffers the earlier
// runs (its own and the parallel subtests') released dirty to the
// recycler, and must repeat its first Result exactly.
func TestClonedBootMatchesInPlace(t *testing.T) {
	byName := func(name string) workloads.Workload {
		w, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	empty := byName("Empty")
	specs := map[string]Spec{}
	for _, w := range suite.All() {
		for _, size := range []workloads.Size{workloads.Low, workloads.High} {
			specs[fmt.Sprintf("%s-%v", w.Name(), size)] = Spec{Workload: w, Mode: sgx.LibOS, Size: size, EPCPages: testEPC}
		}
	}
	btree := byName("BTree")
	specs["switchless"] = Spec{Workload: btree, Mode: sgx.LibOS, Size: workloads.Medium, EPCPages: testEPC, Switchless: true}
	specs["protected-files"] = Spec{Workload: byName("Iozone"), Mode: sgx.LibOS, Size: workloads.Low, EPCPages: testEPC, ProtectedFiles: true}
	specs["integrity-tree"] = Spec{Workload: btree, Mode: sgx.LibOS, Size: workloads.Medium, EPCPages: testEPC,
		Machine: &sgx.Config{IntegrityTree: true}}
	specs["slow-path"] = Spec{Workload: btree, Mode: sgx.LibOS, Size: workloads.Low, EPCPages: testEPC,
		Machine: &sgx.Config{SlowPath: true}}

	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inPlace := mustRunInPlace(t, spec)
			sibling := spec
			sibling.Workload, sibling.ProtectedFiles = empty, false
			pair, cloned := runBooted(t, []Spec{sibling, spec})
			if !cloned[0] || !cloned[1] {
				t.Fatalf("cloned = %v behind a sibling sharing the boot key; want both cloned", cloned)
			}
			if d := diffResults(*inPlace, pair[1]); len(d) > 0 {
				t.Errorf("cloned boot diverged from in-place boot in %v", d)
			}
			if again := mustRunInPlace(t, spec); len(diffResults(*inPlace, *again)) > 0 {
				t.Errorf("a run on recycled page buffers diverged from the first in %v", diffResults(*inPlace, *again))
			}
		})
	}
}

// TestBootPlanKeys checks which specs share a boot: every LibOS spec
// gets a key, equal exactly when the effective machine configuration
// is, except a spec the tracer, chaos injector or timeline must see
// boot.
func TestBootPlanKeys(t *testing.T) {
	btree, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	base := Spec{Workload: btree, Mode: sgx.LibOS, Size: workloads.Low, EPCPages: testEPC}
	with := func(f func(*Spec)) Spec {
		s := base
		f(&s)
		return s
	}
	baseKey, ok := bootKeyOf(base)
	if !ok {
		t.Fatal("a plain LibOS spec has no boot key")
	}
	for _, c := range []struct {
		name   string
		spec   Spec
		shares bool // has a boot key
		same   bool // the key equals base's
	}{
		{"other size", with(func(s *Spec) { s.Size = workloads.High }), true, true},
		{"EPCPages from the spec", with(func(s *Spec) { s.Machine = &sgx.Config{EPCPages: 1} }), true, true},
		{"default costs spelled out", with(func(s *Spec) { s.Machine = &sgx.Config{Costs: sgx.Config{}.WithDefaults().Costs} }), true, true},
		{"other seed", with(func(s *Spec) { s.Seed = 9 }), true, false},
		{"switchless", with(func(s *Spec) { s.Switchless = true }), true, false},
		{"native", with(func(s *Spec) { s.Mode = sgx.Native }), false, false},
		{"timeline", with(func(s *Spec) { s.Timeline = 64 }), false, false},
		{"chaos", with(func(s *Spec) { s.Chaos = &chaos.Config{Rate: 0.1} }), false, false},
		{"hooks", with(func(s *Spec) { s.Hooks.OnMachine = func(*sgx.Machine) {} }), false, false},
	} {
		key, ok := bootKeyOf(c.spec)
		if ok != c.shares || (ok && (key == baseKey) != c.same) {
			t.Errorf("%s: has key %v, same as base %v; want %v, %v", c.name, ok, key == baseKey, c.shares, c.same)
		}
	}
}

// TestBootPlanLimitsLiveTemplates runs more boot keys than workers
// through one boot cache: no more templates than workers may be live
// at once, every template left at the end is idle, and results stay
// identical to in-place boots.
func TestBootPlanLimitsLiveTemplates(t *testing.T) {
	empty, err := suite.ByName("Empty")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for seed := int64(0); seed < 4; seed++ {
		for _, size := range workloads.Sizes() {
			specs = append(specs, Spec{Workload: empty, Mode: sgx.LibOS, Size: size, EPCPages: 32, Seed: seed})
		}
	}
	r := &Runner{Jobs: 2}
	r.init()
	c := &r.boots
	maxLive := 0 // guarded by c.mu
	results := make([]*Result, len(specs))
	forEach(len(specs), r.Jobs, func(i int) {
		res, _, err := runOne(specs[i], c)
		if err != nil {
			t.Error(err)
		}
		c.mu.Lock()
		maxLive = max(maxLive, len(c.tpls))
		c.mu.Unlock()
		results[i] = res
	})
	if maxLive > r.Jobs {
		t.Errorf("%d templates live at once, limit %d", maxLive, r.Jobs)
	}
	if len(c.tpls) > r.Jobs || len(c.idle) != len(c.tpls) {
		t.Errorf("after the batch: %d templates live, %d idle; want all idle, at most %d", len(c.tpls), len(c.idle), r.Jobs)
	}
	for _, tpl := range c.idle {
		if tpl.refs != 0 || tpl.inst == nil {
			t.Errorf("idle template has %d references, instance %v", tpl.refs, tpl.inst != nil)
		}
	}
	if c.clones.Load() == 0 {
		t.Error("no spec was cloned")
	}
	for i, spec := range specs {
		if d := diffResults(*mustRunInPlace(t, spec), *results[i]); len(d) > 0 {
			t.Errorf("spec %d diverged from its in-place boot in %v", i, d)
		}
	}
}

// TestFailedTemplateBuildLeavesCache builds a template whose boot
// fails: its user boots in place, and the failed template leaves the
// cache once that user is done.
func TestFailedTemplateBuildLeavesCache(t *testing.T) {
	r := &Runner{Jobs: 1}
	r.init()
	c := &r.boots
	key := bootKey{cfg: sgx.Config{EPCPages: 32}.WithDefaults(), pages: -1} // a negative enclave size fails the boot
	if _, ok, _ := c.clone(key, nil, libos.Manifest{Binary: "Empty"}); ok {
		t.Fatal("a user of a failed build cloned it; want an in-place boot")
	}
	if c.builds.Load() != 1 || len(c.tpls) != 0 || len(c.idle) != 0 {
		t.Errorf("%d builds, %d templates live, %d idle; want 1 build and an empty cache", c.builds.Load(), len(c.tpls), len(c.idle))
	}
}

// TestRunnerKeepsTemplatesAcrossBatches runs a one-spec batch after a
// batch sharing its boot key: the Runner kept the first batch's
// template idle, so the lone spec runs on a clone of it, with the
// Result an in-place boot gives.
func TestRunnerKeepsTemplatesAcrossBatches(t *testing.T) {
	empty, err := suite.ByName("Empty")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(size workloads.Size) Spec {
		return Spec{Workload: empty, Mode: sgx.LibOS, Size: size, EPCPages: 32}
	}
	r := NewRunner(32)
	mustRunAll(t, r, []Spec{spec(workloads.Low), spec(workloads.Medium)})
	if st := r.Stats(); st.TemplateBuilds != 1 || st.ClonedBoots != 2 || st.InPlaceBoots != 0 {
		t.Fatalf("first batch: %d builds, %d clones, %d in place; want 1, 2, 0", st.TemplateBuilds, st.ClonedBoots, st.InPlaceBoots)
	}
	cloned := false
	r.Progress = func(p Progress) { cloned = p.Cloned }
	got := r.Run(spec(workloads.High))
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !cloned {
		t.Fatal("a lone spec after a batch with its boot key was not cloned")
	}
	if st := r.Stats(); st.TemplateBuilds != 1 || st.ClonedBoots != 3 {
		t.Errorf("after the lone spec: %d builds, %d clones; want 1, 3", st.TemplateBuilds, st.ClonedBoots)
	}
	if d := diffResults(*mustRunInPlace(t, spec(workloads.High)), *got); len(d) > 0 {
		t.Errorf("cloned across batches, the Result diverged from an in-place boot in %v", d)
	}
}

// TestRunLocalClones runs a spec through RunLocal, the coordinator's
// fallback when its fleet is lost, after a Run with the same boot key:
// RunLocal takes the one boot path, so the spec runs on a clone of the
// template the Run left, with the Result an in-place boot gives.
func TestRunLocalClones(t *testing.T) {
	empty, err := suite.ByName("Empty")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(32)
	if res := r.Run(Spec{Workload: empty, Mode: sgx.LibOS, Size: workloads.Low}); res.Err != nil {
		t.Fatal(res.Err)
	}
	spec := Spec{Workload: empty, Mode: sgx.LibOS, Size: workloads.High, EPCPages: 32}
	got := r.RunLocal(spec)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if st := r.Stats(); st.TemplateBuilds != 1 || st.ClonedBoots != 2 || st.InPlaceBoots != 0 {
		t.Errorf("%d builds, %d clones, %d in place; want RunLocal to clone the Run's template: 1, 2, 0",
			st.TemplateBuilds, st.ClonedBoots, st.InPlaceBoots)
	}
	if d := diffResults(*mustRunInPlace(t, spec), *got); len(d) > 0 {
		t.Errorf("RunLocal's cloned boot diverged from an in-place boot in %v", d)
	}
}

// TestRunnerTemplatesBoundedAcrossBatches runs concurrent batches over
// four boot keys on a two-worker Runner: never more than Jobs
// templates may be live, idle ones included, and every Result must
// equal an in-place boot. Run it under -race.
func TestRunnerTemplatesBoundedAcrossBatches(t *testing.T) {
	empty, err := suite.ByName("Empty")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(32)
	r.Jobs = 2
	r.init()
	c := &r.boots
	var batches [][]Spec
	for _, size := range workloads.Sizes() {
		var specs []Spec
		for seed := int64(1); seed <= 4; seed++ {
			for _, pf := range []bool{false, true} {
				specs = append(specs, Spec{Workload: empty, Mode: sgx.LibOS, Size: size, Seed: seed, ProtectedFiles: pf})
			}
		}
		batches = append(batches, specs)
	}
	results := make([][]*Result, len(batches))
	done := make(chan struct{})
	go func() {
		defer close(done)
		forEach(len(batches), len(batches), func(i int) {
			results[i] = r.runAll(batches[i])
			if err := firstFailure(results[i]); err != nil {
				t.Error(err)
			}
		})
	}()
	maxLive := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		c.mu.Lock()
		maxLive = max(maxLive, len(c.tpls))
		if len(c.idle) > len(c.tpls) {
			t.Errorf("%d idle templates but %d live", len(c.idle), len(c.tpls))
		}
		c.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	if maxLive > r.Jobs {
		t.Errorf("%d templates live at once, Jobs %d", maxLive, r.Jobs)
	}
	if st := r.Stats(); st.TemplateBuilds == 0 || st.ClonedBoots == 0 {
		t.Errorf("%d builds and %d clones; want templates shared", st.TemplateBuilds, st.ClonedBoots)
	}
	for i, specs := range batches {
		for j, spec := range specs {
			if d := diffResults(*mustRunInPlace(t, r.normalize(spec)), *results[i][j]); len(d) > 0 {
				t.Errorf("batch %d spec %d diverged from an in-place boot in %v", i, j, d)
			}
		}
	}
}

// TestPaperOrderBoots renders every experiment in report order through
// one two-worker Runner, as sgxgauge report and the bench do, and bounds its
// LibOS boots. The seed-1 report at EPC 64 builds 5 templates, clones
// 63 boots and boots exactly one spec in place: fig9's LibOS spec,
// whose EPC timeline must see the boot. With templates freed after
// each batch it did 6 builds and 3 in place.
func TestPaperOrderBoots(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole report")
	}
	r := NewRunner(64)
	r.Seed = 1
	r.Jobs = 2
	for _, e := range Experiments() {
		if _, err := e.Render(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	st := r.Stats()
	t.Logf("%d template builds, %d clones, %d in place", st.TemplateBuilds, st.ClonedBoots, st.InPlaceBoots)
	if st.InPlaceBoots != 1 {
		t.Errorf("%d in-place boots; want 1, fig9's timeline spec", st.InPlaceBoots)
	}
	if boots := st.TemplateBuilds + st.InPlaceBoots; boots > 6 {
		t.Errorf("%d boots (%d template builds, %d in place); want at most 6", boots, st.TemplateBuilds, st.InPlaceBoots)
	}
}
