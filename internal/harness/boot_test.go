package harness

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// runBooted executes specs as one serial batch on a fresh Runner and
// reports, per spec, whether its boot was cloned from a template.
func runBooted(t *testing.T, specs []Spec) ([]Result, []bool) {
	t.Helper()
	cloned := make([]bool, len(specs))
	results := mustExec(t, 1, specs, OnProgress(func(p Progress) {
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
	slots := planBoots(newBootPlan(2, &bootStats{}), specs)
	want := []bool{true, true, false, false, false, false, false, true, true}
	for i, s := range slots {
		if (s.tpl != nil) != want[i] {
			t.Errorf("spec %d planned = %v, want %v", i, s.tpl != nil, want[i])
		}
	}
	if len(slots[0].plan.tpls) != 1 {
		t.Errorf("%d templates planned, want 1", len(slots[0].plan.tpls))
	}
}

// TestBootPlanLimitsLiveTemplates runs a batch with more shared keys
// than workers: no more templates than workers may be live at once,
// every template left at the end is idle, and results stay identical
// to in-place boots.
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
	plan := newBootPlan(workers, &bootStats{})
	slots := planBoots(plan, specs)
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
	if plan.live > workers || len(plan.idle) != plan.live || len(plan.tpls) != plan.live {
		t.Errorf("after the batch: %d templates live, %d idle, %d in the plan; want all idle, at most %d",
			plan.live, len(plan.idle), len(plan.tpls), workers)
	}
	for _, tpl := range plan.idle {
		if tpl.left != 0 || tpl.refs != 0 || tpl.inst == nil {
			t.Errorf("idle template has %d planned users, %d references, instance %v", tpl.left, tpl.refs, tpl.inst != nil)
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

// TestRunnerKeepsTemplatesAcrossBatches runs a one-spec batch after a
// batch sharing its boot key: the Runner kept the first batch's
// template idle, so the lone spec runs on a clone of it, with the
// Result a fresh Runner gives.
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
	got, err := r.Run(spec(workloads.High), OnProgress(func(p Progress) { cloned = p.Cloned }))
	if err != nil {
		t.Fatal(err)
	}
	if !cloned {
		t.Fatal("a lone spec after a batch with its boot key was not cloned")
	}
	if st := r.Stats(); st.TemplateBuilds != 1 || st.ClonedBoots != 3 {
		t.Errorf("after the lone spec: %d builds, %d clones; want 1, 3", st.TemplateBuilds, st.ClonedBoots)
	}
	want, err := NewRunner(32).Run(spec(workloads.High))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(*want, *got); len(d) > 0 {
		t.Errorf("cloned across batches, the Result diverged from a fresh Runner's in %v", d)
	}
}

// TestRunnerTemplatesBoundedAcrossBatches runs concurrent batches over
// four boot keys on a two-worker Runner: never more than Jobs
// templates may be live, idle ones included, and every Result must
// equal a fresh Runner's. Run it under -race.
func TestRunnerTemplatesBoundedAcrossBatches(t *testing.T) {
	empty, err := suite.ByName("Empty")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(32)
	r.Jobs = 2
	r.init()
	p := r.boots
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
			var err error
			if results[i], err = r.RunAll(batches[i]); err == nil {
				err = firstFailure(results[i])
			}
			if err != nil {
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
		p.mu.Lock()
		if p.live > maxLive {
			maxLive = p.live
		}
		if len(p.idle) > p.live {
			t.Errorf("%d idle templates but %d live", len(p.idle), p.live)
		}
		p.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	if maxLive > r.Jobs {
		t.Errorf("%d templates live at once, Jobs %d", maxLive, r.Jobs)
	}
	if st := r.Stats(); st.TemplateBuilds == 0 || st.ClonedBoots == 0 {
		t.Errorf("%d builds and %d clones; want templates shared", st.TemplateBuilds, st.ClonedBoots)
	}
	fresh := NewRunner(32)
	for i, specs := range batches {
		for j, spec := range specs {
			want, err := fresh.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(*want, *results[i][j]); len(d) > 0 {
				t.Errorf("batch %d spec %d diverged from a fresh Runner in %v", i, j, d)
			}
		}
	}
}

// TestPaperOrderBoots renders every experiment in report order through
// one two-worker Runner, as sgxreport and the bench do, and bounds its
// LibOS boots. With templates kept across batches the seed-1 report
// builds 4 templates and boots 2 specs in place (timeline specs, which
// never share a boot); with templates freed after each batch it did 6
// and 3.
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
	if boots := st.TemplateBuilds + st.InPlaceBoots; boots > 6 {
		t.Errorf("%d boots (%d template builds, %d in place); want at most 6", boots, st.TemplateBuilds, st.InPlaceBoots)
	}
}
