package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
	"sgxgauge/internal/workloads"
)

// pullTask polls as the worker until the task batch arrives (retried
// tasks sit out a backoff park before they reroute).
func pullTask(t *testing.T, c *cluster, worker string) *clusterTask {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		batch, err := c.poll(context.Background(), worker, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 1 {
			return batch[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never received the rerouted task", worker)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterRetryPoison: each worker-reported failure charges the
// task's retry budget and parks it for a backoff before rerouting;
// the attempt past the budget quarantines the task as poisoned — a
// failed result carrying the attempt history — and later submissions
// of the key fail fast without dispatching anything.
func TestClusterRetryPoison(t *testing.T) {
	c := newCluster(time.Minute, 2, time.Millisecond, nil)
	now := time.Now()
	c.register("w1", now)

	spec := harness.Spec{Workload: mustWorkload(t, "Empty")}
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	task, local := c.submit(key, spec, now)
	if local || task.finished {
		t.Fatalf("submit: local=%v finished=%v, want an open remote task", local, task.finished)
	}

	for attempt := 1; attempt <= 3; attempt++ {
		if got := pullTask(t, c, "w1"); got != task {
			t.Fatalf("attempt %d pulled a different task", attempt)
		}
		if !c.fail("w1", key, "boom", time.Now()) {
			t.Fatalf("attempt %d: failure from the owning worker was not attributed", attempt)
		}
		if got := int(c.retries.Load()); got != attempt {
			t.Fatalf("retries counter = %d after attempt %d", got, attempt)
		}
	}

	// The third failure exceeded the budget of 2: poisoned.
	select {
	case <-task.done:
	default:
		t.Fatal("exhausted task was not finished")
	}
	if task.res == nil || task.res.Err == nil {
		t.Fatalf("poisoned task settled with res=%+v, want a failed result", task.res)
	}
	msg := task.res.Err.Error()
	if !strings.Contains(msg, "poisoned after 3 failed attempts") || !strings.Contains(msg, "boom") {
		t.Fatalf("poison message %q lacks the attempt count or history", msg)
	}
	if got := c.poisonedTotal.Load(); got != 1 {
		t.Fatalf("poisonedTotal = %d, want 1", got)
	}

	// Quarantined keys fail fast: no new task, no dispatch.
	task2, local := c.submit(key, spec, time.Now())
	if local || !task2.finished || task2.res == nil || task2.res.Err == nil {
		t.Fatalf("poisoned resubmit: local=%v finished=%v, want an instant failed task",
			local, task2.finished)
	}
	if !strings.Contains(task2.res.Err.Error(), "poisoned") {
		t.Fatalf("resubmit failure %q does not name the quarantine", task2.res.Err)
	}
}

// TestClusterDeregisterNoPenalty: a graceful drain reroutes the
// departing worker's work immediately — no TTL wait, no backoff park —
// and charges no retry budget; the tasks were handed back, not failed.
func TestClusterDeregisterNoPenalty(t *testing.T) {
	c := newCluster(time.Minute, 0, time.Millisecond, nil)
	now := time.Now()
	c.register("w1", now)
	c.register("w2", now)

	// A spec whose key shards onto w1 (even leading byte over the
	// sorted ids).
	var spec harness.Spec
	var key harness.Key
	for seed := int64(1); ; seed++ {
		spec = harness.Spec{Workload: mustWorkload(t, "Empty"), Seed: seed}
		k, err := harness.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if int(k[0])%2 == 0 {
			key = k
			break
		}
	}
	task, local := c.submit(key, spec, now)
	if local || task.worker != "w1" {
		t.Fatalf("task routed to %q (local=%v), want w1", task.worker, local)
	}
	if got := pullTask(t, c, "w1"); got != task {
		t.Fatal("w1 did not pull its routed task")
	}

	if !c.deregister("w1", now) {
		t.Fatal("deregister of a registered worker reported unknown")
	}
	c.mu.Lock()
	owner, parked := task.worker, task.parked
	c.mu.Unlock()
	if owner != "w2" || parked {
		t.Fatalf("after drain the task is on %q (parked=%v), want an immediate reroute to w2", owner, parked)
	}
	if got := c.retries.Load(); got != 0 {
		t.Fatalf("drain charged %d retries, want 0", got)
	}
	if got := c.requeued.Load(); got != 1 {
		t.Fatalf("requeued = %d, want 1", got)
	}
	if got := c.drained.Load(); got != 1 {
		t.Fatalf("drained = %d, want 1", got)
	}
	if c.deregister("ghost", now) {
		t.Fatal("deregister of an unknown worker reported ok")
	}
}

// TestClusterParkedTaskNotClaimed: a task parked in retry backoff
// has no worker, but it is not an orphan — with a live fleet its
// reroute is pending, so a waiter's periodic claimOrphan must leave it
// to the fleet instead of running it on the coordinator.
func TestClusterParkedTaskNotClaimed(t *testing.T) {
	// A minute-long backoff keeps the task parked for the whole test.
	c := newCluster(time.Minute, 3, time.Minute, nil)
	now := time.Now()
	c.register("w1", now)
	spec := harness.Spec{Workload: mustWorkload(t, "Empty")}
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	task, local := c.submit(key, spec, now)
	if local {
		t.Fatal("submit ran the task locally with a live worker")
	}
	if pulled := pullTask(t, c, "w1"); pulled != task {
		t.Fatal("w1 pulled a different task")
	}
	if !c.fail("w1", key, "exec failed", now) {
		t.Fatal("fail rejected the owner's failure report")
	}
	c.mu.Lock()
	parked, owner := task.parked, task.worker
	c.mu.Unlock()
	if !parked || owner != "" {
		t.Fatalf("after fail the task is on %q (parked=%v), want parked with no worker", owner, parked)
	}
	if c.claimOrphan(task, now.Add(time.Second)) {
		t.Fatal("claimOrphan claimed a parked task while w1 is live")
	}
	if got := c.localRuns.Load(); got != 0 {
		t.Fatalf("localRuns = %d, want 0", got)
	}
}

// TestRetryDelayDeterministic: the backoff doubles per retry, caps at
// maxRetryDelay, never drops under a millisecond, and its jitter is a
// pure function of the key — identical inputs park identically on
// every run.
func TestRetryDelayDeterministic(t *testing.T) {
	var key harness.Key
	key[1] = 200
	d1 := retryDelay(DefaultRetryBase, 1, key)
	if d1 != retryDelay(DefaultRetryBase, 1, key) {
		t.Fatal("retryDelay is not deterministic for identical inputs")
	}
	lo, hi := DefaultRetryBase*3/4, DefaultRetryBase*5/4
	if d1 < lo || d1 > hi {
		t.Fatalf("retry 1 delay %v outside the ±25%% band [%v, %v]", d1, lo, hi)
	}
	d2 := retryDelay(DefaultRetryBase, 2, key)
	if d2 <= d1 {
		t.Fatalf("retry 2 delay %v did not grow past retry 1's %v", d2, d1)
	}
	if d := retryDelay(DefaultRetryBase, 30, key); d > maxRetryDelay*5/4 {
		t.Fatalf("retry 30 delay %v escaped the %v cap", d, maxRetryDelay)
	}
	if d := retryDelay(time.Nanosecond, 1, key); d < time.Millisecond {
		t.Fatalf("delay %v under the millisecond floor", d)
	}
	var other harness.Key
	other[1] = 10
	if retryDelay(DefaultRetryBase, 1, key) == retryDelay(DefaultRetryBase, 1, other) {
		t.Fatal("keys with different jitter bytes parked identically (no jitter applied)")
	}
}

// TestPoisonPersistsAcrossRestart: a poison record written through the
// journal survives a coordinator restart — the rebuilt cluster
// preloads the quarantine and fails the key fast with its recorded
// history instead of burning a fresh retry budget.
func TestPoisonPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(time.Minute, -1, time.Millisecond, jl) // poison on first failure
	now := time.Now()
	c.register("w1", now)
	spec := harness.Spec{Workload: mustWorkload(t, "Empty"), Size: workloads.Low, Seed: 5}
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := c.submit(key, spec, now)
	pullTask(t, c, "w1")
	if !c.fail("w1", key, "segfault in enclave", now) {
		t.Fatal("failure was not attributed")
	}
	<-task.done

	// The poison record is persisted off the cluster lock; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := jl.Poisoned()[key.String()]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poison record never reached the journal")
		}
		time.Sleep(time.Millisecond)
	}

	// "Restart": fresh journal handle, fresh cluster.
	jl2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCluster(time.Minute, 0, 0, jl2)
	c2.register("w1", now)
	task2, local := c2.submit(key, spec, now)
	if local || !task2.finished || task2.res == nil || task2.res.Err == nil {
		t.Fatalf("restarted cluster did not fail the poisoned key fast (local=%v finished=%v)", local, task2.finished)
	}
	if msg := task2.res.Err.Error(); !strings.Contains(msg, "segfault in enclave") {
		t.Fatalf("restart failure %q lost the recorded attempt history", msg)
	}
}

// TestPoisonMessageSurvivesRestart: a poisoned key answers with the
// same failure before and after a coordinator restart. The history
// holds a no-penalty reroute note besides the failed attempts, so a
// count taken from the history's length would read one attempt more
// after the restart than before it.
func TestPoisonMessageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(time.Minute, 3, time.Millisecond, jl)
	now := time.Now()
	c.register("w1", now)
	c.register("w2", now)

	// A spec whose key shards onto w1, so the drain below reroutes it.
	var spec harness.Spec
	var key harness.Key
	for seed := int64(1); ; seed++ {
		spec = harness.Spec{Workload: mustWorkload(t, "Empty"), Seed: seed}
		if key, err = harness.SpecKey(spec); err != nil {
			t.Fatal(err)
		}
		if int(key[0])%2 == 0 {
			break
		}
	}
	task, _ := c.submit(key, spec, now)
	pullTask(t, c, "w1")
	if !c.deregister("w1", now) {
		t.Fatal("deregister of a registered worker reported unknown")
	}
	for attempt := 1; attempt <= 4; attempt++ {
		pullTask(t, c, "w2")
		if !c.fail("w2", key, "boom", time.Now()) {
			t.Fatalf("attempt %d: failure was not attributed", attempt)
		}
	}
	<-task.done
	before := task.res.Err.Error()
	if !strings.Contains(before, "poisoned after 4 failed attempts") {
		t.Fatalf("poison message %q, want 4 failed attempts", before)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := jl.Poisoned()[key.String()]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poison record never reached the journal")
		}
		time.Sleep(time.Millisecond)
	}
	jl2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCluster(time.Minute, 3, time.Millisecond, jl2)
	c2.register("w1", now)
	task2, _ := c2.submit(key, spec, now)
	if task2.res == nil || task2.res.Err == nil {
		t.Fatal("restarted cluster did not fail the poisoned key fast")
	}
	if after := task2.res.Err.Error(); after != before {
		t.Fatalf("poison message moved across the restart:\nbefore %q\n after %q", before, after)
	}
}

// TestWorkerReportedFailurePoisons is the end-to-end failed-line path:
// a worker that cannot execute a spec posts a failed result line; with
// a zero retry budget the coordinator poisons the task, and a later
// /v1/run of the same spec answers 200 with the failure as the spec's
// own error — never cached, never an engine error.
func TestWorkerReportedFailurePoisons(t *testing.T) {
	coord, cts := startCoordinator(t, Config{TaskRetries: -1})
	resp, err := http.Post(cts.URL+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spec := coord.runner.Normalize(harness.Spec{Workload: mustWorkload(t, "Empty"), Size: workloads.Low, Seed: 3})
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	task, local := coord.cluster.submit(key, spec, time.Now())
	if local || task.finished {
		t.Fatalf("submit: local=%v finished=%v", local, task.finished)
	}
	resp, err = http.Post(cts.URL+"/v1/cluster/poll", "application/json",
		strings.NewReader(`{"worker":"w1","max":4,"wait_ms":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	var pulled pollResponse
	if err := json.NewDecoder(resp.Body).Decode(&pulled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pulled.Specs) != 1 || pulled.Specs[0].Key != key.String() {
		t.Fatalf("poll returned %+v, want the submitted task", pulled.Specs)
	}

	line, err := json.Marshal(resultLine{Key: key.String(), Failed: "simulated crash"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(cts.URL+"/v1/cluster/results?worker=w1",
		"application/x-ndjson", strings.NewReader(string(line)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	var rr resultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.Accepted != 0 {
		t.Fatalf("failed line counted as %d accepted results, want 0", rr.Accepted)
	}

	select {
	case <-task.done:
	default:
		t.Fatal("failed line did not finish the zero-budget task")
	}
	if task.res == nil || task.res.Err == nil ||
		!strings.Contains(task.res.Err.Error(), "simulated crash") {
		t.Fatalf("task settled with res=%+v, want a failed result naming the crash", task.res)
	}
	if got := coord.cluster.poisonedTotal.Load(); got != 1 {
		t.Fatalf("poisonedTotal = %d, want 1", got)
	}

	// The poisoned spec surfaces through /v1/run as the spec's own
	// failure: 200, error payload, nothing cached.
	resp, err = http.Post(cts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"workload":"Empty","mode":"Vanilla","size":"Low","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var run runResponse
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run of the poisoned spec: status %d, want 200", resp.StatusCode)
	}
	if run.Result == nil || !strings.Contains(run.Result.Error, "poisoned") {
		t.Fatalf("/v1/run result = %+v, want the poison failure in the error field", run.Result)
	}
	resp, err = http.Get(cts.URL + "/v1/results/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("poisoned result was cached (GET /v1/results: %d, want 404)", resp.StatusCode)
	}
}

// TestWorkerDrainFinishesBatch: a SIGTERM'd worker (cancelled context)
// finishes its in-flight batch under the drain budget, lands the
// results post, and only then deregisters — instead of abandoning the
// batch to TTL expiry and re-simulation elsewhere.
func TestWorkerDrainFinishesBatch(t *testing.T) {
	ws := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	ws.runner.Exec = func(spec harness.Spec) *harness.Result {
		once.Do(func() { close(started) })
		<-gate
		return ws.runner.RunLocal(spec)
	}

	spec := ws.runner.Normalize(harness.Spec{Workload: mustWorkload(t, "Empty"), Size: workloads.Low, Seed: 1})
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := spec.Wire()
	if err != nil {
		t.Fatal(err)
	}
	assignment := taskAssignment{Key: key.String(), Spec: wire}

	var polls atomic.Int64
	lines := make(chan resultLine, 4)
	deregistered := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, registerResponse{Workers: 1, TTLMS: 60_000})
	})
	mux.HandleFunc("POST /v1/cluster/poll", func(w http.ResponseWriter, r *http.Request) {
		resp := pollResponse{}
		if polls.Add(1) == 1 {
			resp.Specs = []taskAssignment{assignment}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, heartbeatResponse{OK: true})
	})
	mux.HandleFunc("POST /v1/cluster/results", func(w http.ResponseWriter, r *http.Request) {
		d := newResultLineDecoder(r.Body)
		for {
			k, res, failed, err := d.next()
			if err != nil {
				break
			}
			var line resultLine
			line.Key = k.String()
			line.Failed = failed
			if res != nil {
				line.Result = res.Wire()
			}
			lines <- line
		}
		writeJSON(w, http.StatusOK, resultsResponse{Accepted: 1})
	})
	mux.HandleFunc("POST /v1/cluster/deregister", func(w http.ResponseWriter, r *http.Request) {
		select {
		case deregistered <- struct{}{}:
		default:
		}
		writeJSON(w, http.StatusOK, deregisterResponse{OK: true})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	wk := NewWorker(ws, ts.URL, "w1")
	wk.Drain = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		wk.Run(ctx)
	}()

	// Wait until the batch is executing, then deliver the "SIGTERM".
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started executing the batch")
	}
	cancel()
	// The drain budget keeps the batch alive past the cancellation;
	// releasing the gate lets it finish and post.
	close(gate)

	select {
	case line := <-lines:
		if line.Failed != "" || line.Key != key.String() || line.Result.Name != "Empty" {
			t.Fatalf("drained worker posted %+v, want the finished result for its batch", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never posted its in-flight batch")
	}
	select {
	case <-deregistered:
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never deregistered")
	}
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker Run did not return after the drain")
	}
	if got := wk.executed.Load(); got != 1 {
		t.Fatalf("worker executed %d specs, want 1", got)
	}
}
