package harness

import (
	"fmt"
	"reflect"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// runBooted executes specs as one serial batch and reports, per spec,
// whether its boot was cloned from a batch template.
func runBooted(t *testing.T, specs []Spec) ([]Result, []bool) {
	t.Helper()
	cloned := make([]bool, len(specs))
	results, err := execBatch(specs, Workers(1), OnProgress(func(p Progress) {
		cloned[p.Index] = p.Cloned
	}))
	if err != nil {
		t.Fatal(err)
	}
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

// TestClonedBootMatchesInPlace is the differential for shared LibOS
// boots: each spec run alone in its batch (booting in place) and the
// same spec run behind a sibling that shares its boot key (so both run
// on clones of one template) must give deep-equal Results — cycles,
// startup split, every counter set, output, op stats and timeline.
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
			alone, aloneCloned := runBooted(t, []Spec{spec})
			sibling := spec
			sibling.Workload, sibling.ProtectedFiles = empty, false
			pair, pairCloned := runBooted(t, []Spec{sibling, spec})
			if aloneCloned[0] {
				t.Fatal("a spec alone in its batch was cloned; want an in-place boot")
			}
			if !pairCloned[0] || !pairCloned[1] {
				t.Fatalf("cloned = %v behind a sibling sharing the boot key; want both cloned", pairCloned)
			}
			if alone[0].Err != nil {
				t.Fatal(alone[0].Err)
			}
			if d := diffResults(alone[0], pair[1]); len(d) > 0 {
				t.Errorf("cloned boot diverged from in-place boot in %v", d)
			}
		})
	}
}

// TestBootPlanKeys checks which specs share a boot: only LibOS specs
// with equal effective machine configuration, never a spec the tracer,
// chaos injector or timeline must see boot, and never a key used once.
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
	specs := []Spec{
		base,
		with(func(s *Spec) { s.Size = workloads.High }),            // same key as base
		with(func(s *Spec) { s.Mode = sgx.Native }),                // not LibOS
		with(func(s *Spec) { s.Timeline = 64 }),                    // timeline
		with(func(s *Spec) { s.Chaos = &chaos.Config{Rate: 0.1} }), // chaos
		with(func(s *Spec) { s.Hooks.OnMachine = func(*sgx.Machine) {} }),
		with(func(s *Spec) { s.Seed = 9 }),                                                        // a key used once
		with(func(s *Spec) { s.Machine = &sgx.Config{EPCPages: 1} }),                              // EPCPages comes from the spec
		with(func(s *Spec) { s.Machine = &sgx.Config{Costs: sgx.Config{}.WithDefaults().Costs} }), // default costs spelled out
	}
	slots := planBoots(specs, 2)
	want := []bool{true, true, false, false, false, false, false, true, true}
	for i, s := range slots {
		if (s != nil) != want[i] {
			t.Errorf("spec %d planned = %v, want %v", i, s != nil, want[i])
		}
	}
	if len(slots[0].plan.tpls) != 1 {
		t.Errorf("%d templates planned, want 1", len(slots[0].plan.tpls))
	}
}

// TestBootPlanLimitsLiveTemplates runs a batch with more shared keys
// than workers: no more templates than workers may be live at once,
// every template is released by the end, and results stay identical to
// in-place boots.
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
	const workers = 2
	slots := planBoots(specs, workers)
	plan := slots[0].plan
	maxLive := 0 // guarded by plan.mu
	results := make([]*Result, len(specs))
	forEach(len(specs), workers, func(i int) {
		res, err := runOne(specs[i], slots[i])
		if err != nil {
			t.Error(err)
		}
		plan.mu.Lock()
		if plan.live > maxLive {
			maxLive = plan.live
		}
		plan.mu.Unlock()
		slots[i].finish()
		results[i] = res
	})
	if maxLive > workers {
		t.Errorf("%d templates live at once, limit %d", maxLive, workers)
	}
	if plan.live != 0 {
		t.Errorf("%d templates still live after the batch", plan.live)
	}
	for key, tpl := range plan.tpls {
		if tpl.inst != nil || tpl.left != 0 || tpl.refs != 0 {
			t.Errorf("template %v not released: left %d refs %d", key.cfg.Seed, tpl.left, tpl.refs)
		}
	}
	for i, spec := range specs {
		want, err := runOne(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(*want, *results[i]); len(d) > 0 {
			t.Errorf("spec %d diverged from its in-place boot in %v", i, d)
		}
	}
}
