package harness

import (
	"runtime"
	"sync"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// TestRecycledRunAllocatesLess: a run gives its machine's page memory
// back to the recycler when it ends, so a second identical Vanilla
// spec through one Runner takes its pages from there and allocates
// well under the first. The recycler is drained before each first
// run, and the spec carries a hook, so it is never cached and both
// runs execute. The minimum over a few tries discounts allocations by
// anything else running in the process.
func TestRecycledRunAllocatesLess(t *testing.T) {
	w, err := suite.ByName("Memcached")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: testEPC,
		Hooks: Hooks{OnMachine: func(*sgx.Machine) {}}}
	r := NewRunner(testEPC)
	run := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if res := r.Run(spec); res.Err != nil {
			t.Fatal(res.Err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first, second := ^uint64(0), ^uint64(0)
	for range 3 {
		for mem.PooledPages() > 0 {
			mem.NewFrame()
		}
		first = min(first, run())
		second = min(second, run())
	}
	t.Logf("first run allocates %d bytes, the second %d", first, second)
	if second > first/2 {
		t.Errorf("the second identical run allocated %d bytes, want at most half the first run's %d", second, first)
	}
}

// TestRunnersShareRecyclerConcurrently runs one batch on two Runners
// at once. Both release machines into, and take page buffers from, the
// one process-wide recycler, and each must give exactly the Results
// the batch gives on its own; under -race this also checks the
// recycler's synchronization.
func TestRunnersShareRecyclerConcurrently(t *testing.T) {
	byName := func(name string) workloads.Workload {
		w, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	scenario, err := NewScenarioSpec("interference", 2)
	if err != nil {
		t.Fatal(err)
	}
	scenario.EPCPages = testEPC
	specs := []Spec{
		{Workload: byName("BTree"), Mode: sgx.Native, Size: workloads.Medium, EPCPages: testEPC},
		{Workload: byName("Memcached"), Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: testEPC},
		{Workload: byName("Empty"), Mode: sgx.LibOS, Size: workloads.Low, EPCPages: testEPC},
		{Workload: byName("Empty"), Mode: sgx.LibOS, Size: workloads.Medium, EPCPages: testEPC},
		scenario,
	}
	want := runFresh(1, specs)
	var wg sync.WaitGroup
	got := make([][]Result, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, res := range NewRunner(testEPC).runAll(specs) {
				got[i] = append(got[i], *res)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		for j := range got[i] {
			if d := diffResults(want[j], got[i][j]); len(d) > 0 {
				t.Errorf("runner %d, spec %d: diverged from the batch run alone in %v", i, j, d)
			}
		}
	}
}
