package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/chaos"
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

// mustExec runs specs as one batch on a fresh Runner of the given
// Jobs, failing the test on an engine-level error (which only context
// cancellation produces).
func mustExec(t *testing.T, jobs int, specs []Spec, opts ...Option) []Result {
	t.Helper()
	results, err := (&Runner{Jobs: jobs}).RunAll(specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(results))
	for i, res := range results {
		out[i] = *res
	}
	return out
}

// mustRunAll runs specs as one batch on r, failing the test on an
// engine-level error or any spec's failure.
func mustRunAll(t *testing.T, r *Runner, specs []Spec) []*Result {
	t.Helper()
	results, err := r.RunAll(specs)
	if err == nil {
		err = firstFailure(results)
	}
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestParallelMatchesSerial is the determinism contract: a parallel
// batch must be byte-identical to running the same specs serially, in
// input order.
func TestParallelMatchesSerial(t *testing.T) {
	specs := testGrid(t)
	serial := mustExec(t, 1, specs)
	parallel := mustExec(t, 4, specs)
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
	results := mustExec(t, 3, []Spec{good, bad, good})

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
	mustExec(t, 4, specs, OnProgress(func(p Progress) {
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
		if _, err := r.RunAll(specs, opts...); err != nil {
			t.Fatal(err)
		}
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
	results, err := r.RunAll([]Spec{spec, other, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("batch ran %d specs, want 2 (duplicates deduped)", got)
	}
	if results[0] != results[2] || results[0] != results[3] {
		t.Error("duplicate specs did not share one cached Result")
	}
	if results[1].Mode != sgx.Vanilla || results[0].Mode != sgx.LibOS {
		t.Errorf("input order lost: got modes %v, %v", results[0].Mode, results[1].Mode)
	}

	cached, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached != results[0] {
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
	done := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := r.RunAll([]Spec{spec})
			done <- err
		}()
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
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Executed != 2 || st.Busy != 0 {
		t.Errorf("after both batches: %+v, want 2 executed and no busy slot", st)
	}
}

// TestRunnerCoalescesAcrossBatches: a miss whose key is executing in
// another batch waits for that execution instead of running again,
// and a waiting follower honours its own context.
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
		go func() {
			res, err := r.Run(spec)
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	waitFor(t, "the second batch to coalesce", func() bool { return r.Stats().Coalesced == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.Run(spec, WithContext(ctx))
	if !errors.Is(err, context.Canceled) || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled follower: err %v, Result.Err %v, want context.Canceled", err, res.Err)
	}

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

// TestRunnerFollowerOutlivesCancelledLeader: when the batch leading a
// key is cancelled before the spec starts, a follower from another
// batch runs the spec itself instead of inheriting the cancellation.
func TestRunnerFollowerOutlivesCancelledLeader(t *testing.T) {
	r := &Runner{EPCPages: testEPC, Jobs: 1}
	gate, blocking := make(chan struct{}), make(chan struct{})
	blocker := Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, Hooks: Hooks{
		OnMachine: func(*sgx.Machine) {
			close(blocking)
			<-gate
		},
	}}
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		r.Run(blocker)
	}()
	<-blocking // the only worker slot is taken

	spec := Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low}
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan *Result, 1)
	go func() {
		res, _ := r.Run(spec, WithContext(ctx))
		leader <- res
	}()
	waitFor(t, "the leader to register", func() bool { return r.Stats().InFlight == 1 })
	follower := make(chan *Result, 1)
	go func() {
		res, _ := r.Run(spec)
		follower <- res
	}()
	waitFor(t, "the follower to coalesce", func() bool { return r.Stats().Coalesced == 1 })

	cancel()
	if res := <-leader; !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled leader: Result.Err = %v, want context.Canceled", res.Err)
	}
	close(gate)
	if res := <-follower; res.Err != nil || res.Attempts != 1 {
		t.Fatalf("follower: %+v, want its own clean run", res)
	}
	<-blockerDone
	if n := r.Stats().Executed; n != 2 {
		t.Errorf("Executed = %d, want 2 (the blocker and the follower's run)", n)
	}
}

// TestRunnerRunAllErrorContract: a spec's own failure lands in its
// Result.Err (the error return is engine-level only), siblings still
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
		t.Fatalf("per-spec failure leaked into the engine-level error: %v", err)
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
	again, err := r.RunAll([]Spec{bad})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Err == nil {
		t.Fatal("retry of the failed spec should fail again")
	}
	if runs.Load() != 1 {
		t.Error("failed spec was cached instead of re-run")
	}
}

// TestRunnerRunPromotesNothing: Runner.Run returns the Result with its
// own Err set rather than promoting it into the error return.
func TestRunnerRunPromotesNothing(t *testing.T) {
	r := NewRunner(testEPC)
	bad := Spec{Workload: panicWorkload{}, Mode: sgx.Native, Size: workloads.Low, Seed: 7}
	res, err := r.Run(bad)
	if err != nil {
		t.Fatalf("engine-level error for a per-spec failure: %v", err)
	}
	if res == nil || res.Err == nil {
		t.Fatal("failed spec's Result.Err not set")
	}
}

// TestWithContextCancellation: once the context is cancelled, no new
// spec starts — unstarted specs complete immediately with the context
// error in their Result.Err — and the batch reports the context error
// as its engine-level error.
func TestWithContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	specs := testGrid(t)
	results, err := (&Runner{Jobs: 2}).RunAll(specs, WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("engine error = %v, want context.Canceled", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("spec %d: Err = %v, want context.Canceled", i, res.Err)
		}
	}

	// An uncancelled context changes nothing.
	clean, err := (&Runner{}).RunAll(specs[:1], WithContext(context.Background()))
	if err != nil || clean[0].Err != nil {
		t.Fatalf("live-context batch failed: %v / %v", err, clean[0].Err)
	}
}

// TestRetryBackoffHonorsCancellation pins the ctxflow fix: a cancelled
// batch context must abort the retry backoff sleep immediately. Before
// the fix, runWithRetry slept the raw exponential schedule — with an
// hour-scale backoff, a drained worker sat pinned long after its
// context died. The spec fails transiently on every attempt
// (TransitionRate 1), so without cancellation this test would block
// for the full hour backoff; the deadline below is its regression
// tripwire.
func TestRetryBackoffHonorsCancellation(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 7}
	spec.Chaos = &chaos.Config{Seed: 5, TransitionFault: true, TransitionRate: 1}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []*Result, 1)
	go func() {
		res, _ := (&Runner{Jobs: 1}).RunAll([]Spec{spec}, Retry(3), RetryBackoff(time.Hour), WithContext(ctx))
		done <- res
	}()
	// Let the first attempt start, then cancel mid-backoff. The first
	// simulated run takes well under the 10s guard; the backoff after
	// its transient failure is where the batch must notice the cancel.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case res := <-done:
		r := res[0]
		if r.Err == nil || !sgx.IsTransient(r.Err) {
			t.Fatalf("Err = %v, want the transient fault from the aborted retry loop", r.Err)
		}
		if r.Attempts < 1 || r.Attempts > 3 {
			t.Errorf("Attempts = %d, want >= 1 and < the full retry budget of 4", r.Attempts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch still blocked 10s after cancellation; retry backoff is not context-aware")
	}
}
