package harness

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// testGrid is a small but mixed batch: two workloads across three
// modes and two sizes, at the test EPC so paging paths are exercised.
func testGrid(t *testing.T) []Spec {
	t.Helper()
	btree, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	memcached, err := suite.ByName("Memcached")
	if err != nil {
		t.Fatal(err)
	}
	specs := GridSpecs(
		[]workloads.Workload{btree, memcached},
		[]sgx.Mode{sgx.Vanilla, sgx.Native, sgx.LibOS},
		[]workloads.Size{workloads.Low, workloads.Medium},
	)
	for i := range specs {
		specs[i].EPCPages = testEPC
		specs[i].Seed = 7
	}
	return specs
}

// runFresh runs specs as one batch on a fresh Runner of the given Jobs.
func runFresh(jobs int, specs []Spec, opts ...Option) []Result {
	results := (&Runner{Jobs: jobs}).runAll(specs, opts...)
	out := make([]Result, len(results))
	for i, res := range results {
		out[i] = *res
	}
	return out
}

// mustRunAll runs specs as one batch on r, failing the test on any
// spec's failure.
func mustRunAll(t *testing.T, r *Runner, specs []Spec) []*Result {
	t.Helper()
	results := r.runAll(specs)
	if err := firstFailure(results); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestParallelMatchesSerial is the determinism contract: a parallel
// batch must be byte-identical to running the same specs serially, in
// input order.
func TestParallelMatchesSerial(t *testing.T) {
	specs := testGrid(t)
	serial := runFresh(1, specs)
	parallel := runFresh(4, specs)
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("lengths: serial %d, parallel %d, want %d", len(serial), len(parallel), len(specs))
	}
	for i := range specs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("spec %d: unexpected errors %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("spec %d (%s/%v/%v): parallel result differs from serial",
				i, serial[i].Name, specs[i].Mode, specs[i].Size)
		}
	}
}

// panicWorkload satisfies workloads.Workload but panics when run.
type panicWorkload struct{}

func (panicWorkload) Name() string     { return "PanicStub" }
func (panicWorkload) Property() string { return "always panics" }
func (panicWorkload) NativePort() bool { return true }
func (panicWorkload) DefaultParams(epcPages int, s workloads.Size) workloads.Params {
	return workloads.Params{Knobs: map[string]int64{}}
}
func (panicWorkload) FootprintPages(p workloads.Params) (int, error) { return 8, nil }
func (panicWorkload) Setup(ctx *workloads.Ctx) error                 { return nil }
func (panicWorkload) Run(ctx *workloads.Ctx) (workloads.Output, error) {
	panic("injected failure")
}

// TestPanicIsolation: a panicking spec must surface as a failed Result
// with Err set, without aborting or corrupting its siblings.
func TestPanicIsolation(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	// The hook keeps the two good specs from sharing one cached run.
	good := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 7,
		Hooks: Hooks{OnMachine: func(*sgx.Machine) {}}}
	bad := Spec{Workload: panicWorkload{}, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 7}
	results := runFresh(3, []Spec{good, bad, good})

	if results[1].Err == nil {
		t.Fatal("panicking spec: want Err set, got nil")
	}
	if !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("Err = %v, want mention of the panic", results[1].Err)
	}
	if results[1].Name != "PanicStub" {
		t.Errorf("failed result Name = %q, want PanicStub", results[1].Name)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling %d aborted: %v", i, results[i].Err)
		}
		if results[i].Name != "BTree" || results[i].Cycles == 0 {
			t.Errorf("sibling %d: got %q/%d cycles, want a complete BTree run",
				i, results[i].Name, results[i].Cycles)
		}
	}
	if !reflect.DeepEqual(results[0], results[2]) {
		t.Error("identical sibling specs produced different results alongside a panic")
	}
}

// TestProgressEvents: the callback sees every spec exactly once, with
// Completed counting 1..Total and Index covering the input positions.
func TestProgressEvents(t *testing.T) {
	specs := testGrid(t)
	var events []Progress
	runFresh(4, specs, OnProgress(func(p Progress) {
		events = append(events, p) // serialized by the engine, no lock needed
	}))
	if len(events) != len(specs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(specs))
	}
	seen := make([]bool, len(specs))
	for i, ev := range events {
		if ev.Completed != i+1 || ev.Total != len(specs) {
			t.Errorf("event %d: Completed/Total = %d/%d, want %d/%d",
				i, ev.Completed, ev.Total, i+1, len(specs))
		}
		if ev.Index < 0 || ev.Index >= len(specs) || seen[ev.Index] {
			t.Fatalf("event %d: bad or repeated Index %d", i, ev.Index)
		}
		seen[ev.Index] = true
		if ev.Err != nil {
			t.Errorf("event %d: unexpected Err %v", i, ev.Err)
		}
	}
}

// TestProgressIndexesInput: when some specs of a batch hit the cache,
// the executed specs' progress events still name their own input
// position, and Completed counts the hits too, against the whole
// batch.
func TestProgressIndexesInput(t *testing.T) {
	var specs []Spec
	for _, name := range []string{"OpenSSL", "HashJoin", "BTree", "Blockchain"} {
		w, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: testEPC, Seed: 7})
	}
	for _, cached := range []bool{false, true} {
		r := &Runner{Jobs: 1}
		mustRunAll(t, r, []Spec{specs[0], specs[2]})
		var events []Progress
		opts := []Option{OnProgress(func(p Progress) { events = append(events, p) })}
		if cached {
			opts = append(opts, ProgressCached())
		}
		r.runAll(specs, opts...)
		want := 2
		if cached {
			want = 4
		}
		if len(events) != want {
			t.Fatalf("cached events %v: %d progress events, want %d", cached, len(events), want)
		}
		seen := map[int]bool{}
		for n, ev := range events {
			if ev.Index < 0 || ev.Index >= len(specs) || seen[ev.Index] {
				t.Fatalf("event %d: bad or repeated Index %d", n, ev.Index)
			}
			seen[ev.Index] = true
			if ev.Name != specs[ev.Index].WorkloadName() {
				t.Errorf("event %d: %s reported at Index %d, the position of %s", n, ev.Name, ev.Index, specs[ev.Index].WorkloadName())
			}
			if ev.Completed != len(specs)-want+n+1 || ev.Total != len(specs) {
				t.Errorf("event %d: Completed/Total = %d/%d, want %d/%d", n, ev.Completed, ev.Total, len(specs)-want+n+1, len(specs))
			}
		}
	}
}

// TestRunnerRunAllCacheAndDedup: duplicate specs in a batch run once,
// batches populate the cache for later Run calls, and input order is
// preserved.
func TestRunnerRunAllCacheAndDedup(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testEPC)
	r.Seed = 7
	r.Jobs = 4
	var runs atomic.Int64
	r.Progress = func(Progress) { runs.Add(1) } // one event per actual run

	spec := Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Low}
	other := Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low}
	results := r.runAll([]Spec{spec, other, spec, spec})
	if got := runs.Load(); got != 2 {
		t.Errorf("batch ran %d specs, want 2 (duplicates deduped)", got)
	}
	if results[0] != results[2] || results[0] != results[3] {
		t.Error("duplicate specs did not share one cached Result")
	}
	if results[1].Mode != sgx.Vanilla || results[0].Mode != sgx.LibOS {
		t.Errorf("input order lost: got modes %v, %v", results[0].Mode, results[1].Mode)
	}

	if cached := r.Run(spec); cached != results[0] {
		t.Error("Run after RunAll re-ran instead of hitting the cache")
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("Run re-ran a cached spec (%d runs total)", got)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunnerJobsBoundsAcrossBatches: Jobs bounds local simulation
// across concurrent batches, not per batch — with Jobs 1, the second
// of two concurrent one-spec batches cannot start until the first
// finishes.
func TestRunnerJobsBoundsAcrossBatches(t *testing.T) {
	r := &Runner{EPCPages: testEPC, Jobs: 1}
	gate := make(chan struct{})
	var entered atomic.Int32
	spec := Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, Hooks: Hooks{
		OnMachine: func(*sgx.Machine) {
			entered.Add(1)
			<-gate
		},
	}}
	done := make(chan *Result, 2)
	for range 2 {
		go func() { done <- r.Run(spec) }()
	}
	waitFor(t, "the first hook", func() bool { return entered.Load() >= 1 })
	time.Sleep(100 * time.Millisecond)
	if n := entered.Load(); n != 1 {
		t.Errorf("%d hooks entered with Jobs = 1, want 1", n)
	}
	if busy := r.Stats().Busy; busy != 1 {
		t.Errorf("Stats().Busy = %d, want 1", busy)
	}
	close(gate)
	for range 2 {
		if res := <-done; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st := r.Stats(); st.Executed != 2 || st.Busy != 0 {
		t.Errorf("after both batches: %+v, want 2 executed and no busy slot", st)
	}
}

// TestRunnerCoalescesAcrossBatches: a miss whose key is executing in
// another batch waits for that execution instead of running again.
func TestRunnerCoalescesAcrossBatches(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	r := &Runner{EPCPages: testEPC, Exec: func(s Spec) (*Result, error) {
		calls.Add(1)
		<-gate
		return &Result{Name: s.WorkloadName(), Mode: s.Mode, Cycles: 5, Attempts: 1}, nil
	}}
	spec := Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low}
	results := make(chan *Result, 2)
	for range 2 {
		go func() { results <- r.Run(spec) }()
	}
	waitFor(t, "the second batch to coalesce", func() bool { return r.Stats().Coalesced == 1 })

	close(gate)
	a, b := <-results, <-results
	if a != b || a.Cycles != 5 {
		t.Errorf("batches got %p and %p (cycles %d), want one shared result", a, b, a.Cycles)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("spec executed %d times, want 1", n)
	}
	if st := r.Stats(); st.Executed != 1 || st.InFlight != 0 {
		t.Errorf("Stats() = %+v, want 1 executed and nothing in flight", st)
	}
}

// TestRunnerCoalescesFailure: a follower shares its leader's failed
// Result, and the failure is not cached, so a later batch executes the
// spec again.
func TestRunnerCoalescesFailure(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	failure := errors.New("injected failure")
	r := &Runner{EPCPages: testEPC, Exec: func(s Spec) (*Result, error) {
		calls.Add(1)
		<-gate
		return &Result{Name: s.WorkloadName(), Mode: s.Mode, Err: failure, Attempts: 1}, nil
	}}
	spec := Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low}
	results := make(chan *Result, 2)
	for range 2 {
		go func() { results <- r.Run(spec) }()
	}
	waitFor(t, "the second batch to coalesce", func() bool { return r.Stats().Coalesced == 1 })

	close(gate)
	a, b := <-results, <-results
	if a != b || !errors.Is(a.Err, failure) {
		t.Errorf("batches got %p (Err %v) and %p (Err %v), want one shared failed result", a, a.Err, b, b.Err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("spec executed %d times, want 1", n)
	}

	if res := r.Run(spec); !errors.Is(res.Err, failure) {
		t.Errorf("third batch: Err = %v, want the injected failure", res.Err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("spec executed %d times after a third batch, want 2 (failures are not cached)", n)
	}
	if st := r.Stats(); st.Executed != 2 || st.InFlight != 0 || r.Cache.Len() != 0 {
		t.Errorf("Stats() = %+v with %d cached, want 2 executed, nothing in flight or cached", st, r.Cache.Len())
	}
}

// TestRunnerProgressCachedReachesTotal: under ProgressCached, a spec
// that follows another execution of its key gets a Cached event when
// that execution settles, so Completed reaches Total. That holds for a
// duplicate within the batch and for a miss that coalesces onto a
// concurrent batch's execution.
func TestRunnerProgressCachedReachesTotal(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	r := &Runner{EPCPages: testEPC, Exec: func(s Spec) (*Result, error) {
		calls.Add(1)
		<-gate
		return &Result{Name: s.WorkloadName(), Mode: s.Mode, Attempts: 1}, nil
	}}
	spec := Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low}
	record := func(evs *[]Progress) Option {
		return OnProgress(func(p Progress) { *evs = append(*evs, p) })
	}
	check := func(name string, evs []Progress, total int, cached []bool) {
		t.Helper()
		if len(evs) != total {
			t.Fatalf("%s: %d progress events, want %d: %+v", name, len(evs), total, evs)
		}
		for i, ev := range evs {
			if ev.Completed != i+1 || ev.Total != total || ev.Cached != cached[i] {
				t.Errorf("%s: event %d = %+v, want Completed %d, Total %d, Cached %v", name, i, ev, i+1, total, cached[i])
			}
		}
	}

	// The concurrent batch leads the one execution; the 3-spec batch
	// below coalesces onto it for all three of its copies.
	lead := make(chan *Result, 1)
	go func() { lead <- r.Run(spec) }()
	waitFor(t, "the leading batch to execute", func() bool { return calls.Load() == 1 })
	var evs []Progress
	done := make(chan []*Result, 1)
	go func() { done <- r.runAll([]Spec{spec, spec, spec}, ProgressCached(), record(&evs)) }()
	waitFor(t, "all three copies to coalesce", func() bool { return r.Stats().Coalesced == 3 })
	close(gate)
	<-lead
	<-done
	check("coalesced batch", evs, 3, []bool{true, true, true})

	// A cold batch of one repeated spec: one execution, two duplicates.
	r.Cache = newMapCache()
	evs = nil
	r.runAll([]Spec{spec, spec, spec}, ProgressCached(), record(&evs))
	check("duplicate batch", evs, 3, []bool{false, true, true})
	if n := calls.Load(); n != 2 {
		t.Errorf("spec executed %d times, want 2 (one per cold cache)", n)
	}
}

// TestRunnerRunAllErrorContract: a spec's own failure lands in its
// Result.Err (the error return is always nil), siblings still
// complete, and failed cells are not cached (a retry re-runs them).
func TestRunnerRunAllErrorContract(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testEPC)
	r.Seed = 7
	r.Jobs = 2
	good := Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low}
	bad := Spec{Workload: panicWorkload{}, Mode: sgx.Native, Size: workloads.Low}
	results, err := r.RunAll([]Spec{good, bad})
	if err != nil {
		t.Fatalf("per-spec failure leaked into RunAll's error: %v", err)
	}
	if results[0] == nil || results[0].Err != nil {
		t.Fatalf("sibling did not complete cleanly: %+v", results[0])
	}
	if results[1] == nil || results[1].Err == nil {
		t.Fatal("panicked spec's Result.Err not set")
	}
	if !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("Result.Err = %v, want mention of the panic", results[1].Err)
	}

	// The failure must not be cached: a second batch re-runs it.
	var runs atomic.Int64
	r.Progress = func(Progress) { runs.Add(1) }
	if again := r.Run(bad); again.Err == nil {
		t.Fatal("retry of the failed spec should fail again")
	}
	if runs.Load() != 1 {
		t.Error("failed spec was cached instead of re-run")
	}
}

// TestRunnerRunPromotesNothing: Runner.Run returns a failed spec's
// Result with its own Err set.
func TestRunnerRunPromotesNothing(t *testing.T) {
	r := NewRunner(testEPC)
	bad := Spec{Workload: panicWorkload{}, Mode: sgx.Native, Size: workloads.Low, Seed: 7}
	if res := r.Run(bad); res == nil || res.Err == nil {
		t.Fatal("failed spec's Result.Err not set")
	}
}
