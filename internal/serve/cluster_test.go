package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/store"
	"sgxgauge/internal/workloads"
)

// startCoordinator boots a coordinator daemon on an ephemeral
// listener.
func startCoordinator(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Coordinator = true
	if cfg.EPCPages == 0 {
		cfg.EPCPages = testEPC
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// startWorker boots a worker daemon (its own Server and runner) and
// runs its pull loop against the coordinator until test cleanup.
func startWorker(t *testing.T, coordinatorURL, id string, cfg Config) (*Server, *Worker) {
	t.Helper()
	if cfg.EPCPages == 0 {
		cfg.EPCPages = testEPC
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	ws := New(cfg)
	wk := NewWorker(ws, coordinatorURL, id)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ws, wk
}

// waitForWorkers blocks until the coordinator sees n live workers.
func waitForWorkers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.cluster.liveWorkers(time.Now()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never saw %d workers", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepResultLines posts a sweep and returns its raw "result" event
// lines plus the terminal event.
func sweepResultLines(t *testing.T, baseURL, body string) (lines []string, terminal sweepEvent) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		terminal = ev
		if ev.Event == "result" {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, terminal
}

// sweepBody returns a sweep request of n distinct Empty/Vanilla specs.
func sweepBody(n int) string {
	specs := make([]string, n)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"workload":"Empty","mode":"Vanilla","size":"Low","seed":%d}`, i+1)
	}
	return "[" + strings.Join(specs, ",") + "]"
}

// TestClusterSweepTwoWorkers is the end-to-end acceptance test: a
// coordinator with two registered workers serves a sweep entirely
// from the fleet — every spec executes on the worker its key shards
// to, none on the coordinator — and the stream is byte-identical to
// the same sweep on a standalone single-node daemon.
func TestClusterSweepTwoWorkers(t *testing.T) {
	coord, cts := startCoordinator(t, Config{})
	_, wk1 := startWorker(t, cts.URL, "w1", Config{})
	_, wk2 := startWorker(t, cts.URL, "w2", Config{})
	waitForWorkers(t, coord, 2)

	const n = 8
	body := sweepBody(n)
	clusterLines, terminal := sweepResultLines(t, cts.URL, body)
	if terminal.Event != "done" || !terminal.OK {
		t.Fatalf("terminal event = %+v, want done ok:true", terminal)
	}
	if len(clusterLines) != n {
		t.Fatalf("got %d result lines, want %d", len(clusterLines), n)
	}

	// The coordinator never simulated; the fleet did all the work,
	// split exactly by key shard over the sorted worker ids.
	if got := coord.cluster.localRuns.Load(); got != 0 {
		t.Fatalf("coordinator ran %d specs locally, want 0", got)
	}
	var specs []harness.Spec
	if err := json.Unmarshal([]byte(body), &specs); err != nil {
		t.Fatal(err)
	}
	wantPerWorker := map[string]uint64{}
	ids := []string{"w1", "w2"}
	sort.Strings(ids)
	for _, spec := range specs {
		key, err := coord.runner.Key(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantPerWorker[ids[int(key[0])%len(ids)]]++
	}
	if got := wk1.executed.Load(); got != wantPerWorker["w1"] {
		t.Errorf("w1 executed %d specs, want %d (its shard)", got, wantPerWorker["w1"])
	}
	if got := wk2.executed.Load(); got != wantPerWorker["w2"] {
		t.Errorf("w2 executed %d specs, want %d (its shard)", got, wantPerWorker["w2"])
	}
	if got := coord.cluster.completed.Load(); got != n {
		t.Errorf("cluster completed %d tasks, want %d", got, n)
	}

	// Byte-identical to a single-node daemon running the same sweep.
	single := New(Config{EPCPages: testEPC, Seed: 7, Workers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	singleLines, terminal := sweepResultLines(t, sts.URL, body)
	if terminal.Event != "done" || !terminal.OK {
		t.Fatalf("single-node terminal event = %+v, want done ok:true", terminal)
	}
	for i := range singleLines {
		if clusterLines[i] != singleLines[i] {
			t.Fatalf("result line %d differs between cluster and single node:\n cluster: %s\n single:  %s",
				i, clusterLines[i], singleLines[i])
		}
	}
}

// TestClusterFigureFromFleet: the figures path draws on the same
// fleet machinery — regenerating a figure through a coordinator runs
// nothing on the coordinator itself.
func TestClusterFigureFromFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration in -short mode")
	}
	coord, cts := startCoordinator(t, Config{})
	startWorker(t, cts.URL, "w1", Config{})
	startWorker(t, cts.URL, "w2", Config{})
	waitForWorkers(t, coord, 2)

	resp, err := http.Get(cts.URL + "/v1/figures/7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure via cluster: status %d, want 200", resp.StatusCode)
	}
	if got := coord.cluster.localRuns.Load(); got != 0 {
		t.Fatalf("figure generation ran %d specs on the coordinator, want 0", got)
	}
}

// TestClusterWorkerStoreWarm: a fresh coordinator dispatching to a
// restarted worker whose persistent store already holds the results
// serves the whole sweep without a single simulation anywhere.
func TestClusterWorkerStoreWarm(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	const n = 4
	body := sweepBody(n)

	coord1, cts1 := startCoordinator(t, Config{})
	startWorker(t, cts1.URL, "w1", Config{Store: openStore()})
	waitForWorkers(t, coord1, 1)
	firstLines, terminal := sweepResultLines(t, cts1.URL, body)
	if terminal.Event != "done" || !terminal.OK {
		t.Fatalf("terminal event = %+v, want done ok:true", terminal)
	}

	// "Restart": a brand-new coordinator and a brand-new worker
	// process sharing only the store directory. The progress hook is
	// installed before the pull loop starts: it fires only for specs
	// that actually simulate.
	coord2, cts2 := startCoordinator(t, Config{})
	ws2 := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, Store: openStore()})
	var simulated atomic.Int64
	ws2.runner.Progress = func(harness.Progress) { simulated.Add(1) }
	wk2 := NewWorker(ws2, cts2.URL, "w1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk2.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitForWorkers(t, coord2, 1)

	secondLines, terminal := sweepResultLines(t, cts2.URL, body)
	if terminal.Event != "done" || !terminal.OK {
		t.Fatalf("terminal event = %+v, want done ok:true", terminal)
	}
	if n := simulated.Load(); n != 0 {
		t.Fatalf("restarted worker simulated %d specs, want 0 (all served from the store)", n)
	}
	for i := range firstLines {
		if firstLines[i] != secondLines[i] {
			t.Fatalf("result line %d differs across restart:\n first:  %s\n second: %s", i, firstLines[i], secondLines[i])
		}
	}
}

// TestClusterCoalescing: a key's one open task is dispatched once and
// settled by the owning worker's result; a replay of that result is
// stale. (Identical concurrent requests coalesce before the cluster,
// in the Runner: see TestCoordinatorDispatchesOnceForIdenticalRuns.)
func TestClusterCoalescing(t *testing.T) {
	c := newCluster(time.Minute, 0, 0, nil)
	now := time.Now()
	c.register("w1", now)

	spec := harness.Spec{Workload: mustWorkload(t, "Empty")}
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	t1, local := c.submit(key, spec, now)
	if local {
		t.Fatal("submit fell back to local execution with a live worker")
	}

	// The worker must pull the task before its result is acceptable.
	if _, err := c.poll(context.Background(), "w1", 4, 0); err != nil {
		t.Fatal(err)
	}
	res := &harness.Result{Name: "Empty"}
	if !c.complete("w1", key, res, now) {
		t.Fatal("owning worker's result for its pulled task was not accepted")
	}
	select {
	case <-t1.done:
	default:
		t.Fatal("completion did not settle the shared task")
	}
	if t1.res != res {
		t.Fatalf("task settled with res=%v, want the worker's result", t1.res)
	}
	// A replay of the same key is stale, not a crash.
	c.complete("w1", key, res, now)
	if got := c.stale.Load(); got != 1 {
		t.Fatalf("stale counter = %d, want 1", got)
	}
}

// TestCoordinatorDispatchesOnceForIdenticalRuns: identical /v1/run
// requests racing on a coordinator coalesce in its Runner, so the
// fleet sees exactly one task, and its one result answers them all.
func TestCoordinatorDispatchesOnceForIdenticalRuns(t *testing.T) {
	const n = 8
	coord, cts := startCoordinator(t, Config{})
	coord.cluster.register("w1", time.Now())

	const body = `{"workload":"Empty","mode":"Vanilla","size":"Low","seed":11}`
	type reply struct {
		status int
		run    runResponse
		err    error
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(cts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				replies <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			var r reply
			r.status, r.err = resp.StatusCode, json.NewDecoder(resp.Body).Decode(&r.run)
			replies <- r
		}()
	}
	// Every request but the leader's waits on the leader's flight.
	deadline := time.Now().Add(10 * time.Second)
	for coord.runner.Stats().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", coord.runner.Stats().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}

	tasks, err := coord.cluster.poll(context.Background(), "w1", n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 {
		t.Fatalf("w1 pulled %d tasks, want 1", len(tasks))
	}
	if !coord.cluster.complete("w1", tasks[0].key, coord.runner.RunLocal(tasks[0].spec), time.Now()) {
		t.Fatal("the owning worker's result was not accepted")
	}
	for i := 0; i < n; i++ {
		r := <-replies
		if r.err != nil || r.status != http.StatusOK || r.run.Result == nil || r.run.Result.Error != "" {
			t.Fatalf("reply %d: status %d err %v result %+v", i, r.status, r.err, r.run.Result)
		}
	}
	if got := coord.cluster.dispatched.Load(); got != 1 {
		t.Fatalf("dispatched %d tasks, want 1", got)
	}
}

// TestClusterRequeueOnWorkerDeath: work assigned to a worker that
// goes silent past the TTL reroutes to the survivors; with no
// survivors a waiter claims it for local execution.
func TestClusterRequeueOnWorkerDeath(t *testing.T) {
	const ttl = time.Minute
	c := newCluster(ttl, 0, time.Millisecond, nil)
	t0 := time.Now()
	c.register("w1", t0)
	c.register("w2", t0)

	// Build a spec whose key shards onto w1 (sorted ids: w1 owns even
	// leading bytes, w2 odd).
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
	task, local := c.submit(key, spec, t0)
	if local || task.worker != "w1" {
		t.Fatalf("task routed to %q (local=%v), want w1", task.worker, local)
	}

	// w1 pulls the task, then dies; w2 stays in touch. The next
	// activity past the TTL reroutes the pull onto w2.
	pulled, err := c.poll(context.Background(), "w1", 4, 0)
	if err != nil || len(pulled) != 1 || pulled[0] != task {
		t.Fatalf("w1 poll = %v, %v; want the routed task", pulled, err)
	}
	t1 := t0.Add(ttl / 2)
	if _, err := c.poll(context.Background(), "w2", 4, 0); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.workers["w2"].lastSeen = t1
	c.mu.Unlock()
	t2 := t0.Add(ttl + time.Second)
	if n := c.liveWorkers(t2); n != 1 {
		t.Fatalf("live workers after w1 expiry = %d, want 1", n)
	}
	if got := c.retries.Load(); got != 1 {
		t.Fatalf("retries counter = %d, want 1 (expiry of a pulled task charges the budget)", got)
	}
	// The failed attempt parks the task for its backoff; the reroute
	// onto w2 lands when the (1ms-base) delay elapses.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		owner := task.worker
		c.mu.Unlock()
		if owner == "w2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task rerouted to %q, want w2", owner)
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.requeued.Load(); got != 1 {
		t.Fatalf("requeued counter = %d, want 1", got)
	}

	// w2 dies too: the waiting request claims the orphan and runs it
	// locally.
	t3 := t1.Add(ttl + time.Second)
	if !c.claimOrphan(task, t3) {
		t.Fatal("claimOrphan failed after total fleet loss")
	}
	if got := c.localRuns.Load(); got != 1 {
		t.Fatalf("localRuns counter = %d, want 1", got)
	}
	// A dead worker's late result for the claimed task is stale.
	c.complete("w1", key, &harness.Result{Name: "Empty"}, t3)
	if task.finished {
		t.Fatal("late result finished a task the waiter already claimed")
	}
	c.finish(task, &harness.Result{Name: "Empty"})
	if !task.finished {
		t.Fatal("finish did not settle the claimed task")
	}
}

// TestClusterUnknownWorkerPoll: polling (or heartbeating) without
// registering is a 404 telling the worker to register, not a hang or
// a 500.
func TestClusterUnknownWorkerPoll(t *testing.T) {
	_, cts := startCoordinator(t, Config{})
	for _, path := range []string{"/v1/cluster/poll", "/v1/cluster/heartbeat"} {
		resp, err := http.Post(cts.URL+path, "application/json",
			strings.NewReader(`{"worker":"ghost","max":1,"wait_ms":0}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestClusterResultValidation: a result reaches a task only from the
// live worker that pulled it, and only when it identifies as the
// task's spec. Everything else is stale or rejected — and a mismatch
// from the owning worker fails the task loudly instead of leaving it
// assigned forever.
func TestClusterResultValidation(t *testing.T) {
	c := newCluster(time.Minute, 0, 0, nil)
	now := time.Now()
	c.register("w1", now)

	spec := harness.Spec{Workload: mustWorkload(t, "Empty")}
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	task, local := c.submit(key, spec, now)
	if local {
		t.Fatal("submit fell back to local execution with a live worker")
	}
	good := &harness.Result{Name: "Empty"}

	// Routed but never pulled: rejected, task still queued.
	if c.complete("w1", key, good, now) {
		t.Fatal("accepted a result for a task the worker never pulled")
	}
	if got := c.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if task.finished {
		t.Fatal("rejected result finished the task")
	}

	// Pulled by w1; a post from a different live worker is stale.
	if _, err := c.poll(context.Background(), "w1", 4, 0); err != nil {
		t.Fatal(err)
	}
	c.register("w2", now)
	if c.complete("w2", key, good, now) {
		t.Fatal("accepted a result from a worker that does not own the task")
	}
	if got := c.stale.Load(); got != 1 {
		t.Fatalf("stale counter = %d, want 1", got)
	}
	if task.finished {
		t.Fatal("non-owner's result finished the task")
	}

	// The owner posting a result for the wrong spec fails the task.
	if c.complete("w1", key, &harness.Result{Name: "BTree"}, now) {
		t.Fatal("accepted a result naming the wrong workload")
	}
	if !task.finished || task.res == nil || task.res.Err == nil || task.res.Name != spec.WorkloadName() {
		t.Fatalf("mismatched result left task finished=%v res=%+v, want a failed result for the task's spec",
			task.finished, task.res)
	}

	// A fresh task for the same key completes normally end to end
	// (with two workers it shards by the key's leading byte).
	task2, _ := c.submit(key, spec, now)
	if task2.finished || task2 == task {
		t.Fatal("failed task was not retired from the pending map")
	}
	owner := []string{"w1", "w2"}[int(key[0])%2]
	if _, err := c.poll(context.Background(), owner, 4, 0); err != nil {
		t.Fatal(err)
	}
	if !c.complete(owner, key, good, now) {
		t.Fatal("owning worker's matching result was not accepted")
	}
	if task2.res != good {
		t.Fatalf("task settled with res=%v, want the worker's result", task2.res)
	}
}

// TestClusterResultsPostPoisonRejected: the unauthenticated results
// endpoint cannot be used to seed the shared cache and persistent
// store with fabricated results — a post for a key the coordinator
// never dispatched is dropped whether or not the poster's worker id
// is registered.
func TestClusterResultsPostPoisonRejected(t *testing.T) {
	coord, cts := startCoordinator(t, Config{Store: func() *store.Store {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()})
	resp, err := http.Post(cts.URL+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	key := strings.Repeat("ab", 32)
	line, err := json.Marshal(resultLine{Key: key, Result: (&harness.Result{Name: "Empty", Attempts: 1}).Wire()})
	if err != nil {
		t.Fatal(err)
	}
	for _, worker := range []string{"w1", "ghost"} {
		resp, err := http.Post(cts.URL+"/v1/cluster/results?worker="+worker,
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
			t.Errorf("poison post as %q: accepted %d results, want 0", worker, rr.Accepted)
		}
	}
	if got := coord.cluster.stale.Load(); got != 2 {
		t.Errorf("stale counter = %d, want 2", got)
	}

	// The fabricated result reached neither the cache nor the store.
	resp, err = http.Get(cts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/results/%s: status %d, want 404 (poisoned entry served)", key, resp.StatusCode)
	}
	if n := coord.store.Len(); n != 0 {
		t.Fatalf("store holds %d entries after poison posts, want 0", n)
	}
}

// TestWorkerReregistersAfterFailedResultsPost: a worker whose results
// post dies must re-register — polling again under the old
// registration would keep the dropped batch assigned at the
// coordinator forever.
func TestWorkerReregistersAfterFailedResultsPost(t *testing.T) {
	ws := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
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

	var registers, posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		registers.Add(1)
		writeJSON(w, http.StatusOK, registerResponse{Workers: 1, TTLMS: 60_000})
	})
	mux.HandleFunc("POST /v1/cluster/poll", func(w http.ResponseWriter, r *http.Request) {
		resp := pollResponse{}
		if registers.Load() == 1 && posts.Load() == 0 {
			resp.Specs = []taskAssignment{assignment}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, heartbeatResponse{OK: true})
	})
	mux.HandleFunc("POST /v1/cluster/results", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if posts.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, resultsResponse{Accepted: 0})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	wk := NewWorker(ws, ts.URL, "w1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.Now().Add(10 * time.Second)
	for registers.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never re-registered after a failed results post (registers=%d, postFails=%d)",
				registers.Load(), wk.postFails.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := wk.postFails.Load(); got < 1 {
		t.Fatalf("postFails = %d, want >= 1", got)
	}
}

// TestClusterHeartbeat: a heartbeat refreshes liveness without
// pulling work, so a worker stuck simulating one long spec outlives
// the TTL; silence after the last beat still expires it.
func TestClusterHeartbeat(t *testing.T) {
	const ttl = time.Minute
	c := newCluster(ttl, 0, time.Millisecond, nil)
	t0 := time.Now()
	c.register("w1", t0)

	t1 := t0.Add(ttl - time.Second)
	if !c.heartbeat("w1", t1) {
		t.Fatal("heartbeat for a registered worker reported unknown")
	}
	// Past the original TTL, alive only because of the beat.
	if n := c.liveWorkers(t0.Add(ttl + time.Second)); n != 1 {
		t.Fatalf("live workers past the registration TTL = %d, want 1 (heartbeat ignored)", n)
	}
	if n := c.liveWorkers(t1.Add(ttl + time.Second)); n != 0 {
		t.Fatalf("live workers past the heartbeat TTL = %d, want 0", n)
	}
	if c.heartbeat("w1", t1.Add(ttl+2*time.Second)) {
		t.Fatal("heartbeat for an expired worker reported registered")
	}
}

// TestClusterPollDwellClamped: an idle long-poll returns before the
// TTL can expire the polling worker — otherwise a short TTL would
// churn idle workers through expiry and re-registration.
func TestClusterPollDwellClamped(t *testing.T) {
	c := newCluster(time.Second, 0, 0, nil)
	c.register("w1", time.Now())
	start := time.Now()
	batch, err := c.poll(context.Background(), "w1", 1, 10*time.Second)
	if err != nil || len(batch) != 0 {
		t.Fatalf("poll = %v, %v; want a clean empty batch", batch, err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("idle poll dwelled %v, at or past the 1s TTL", d)
	}
	if n := c.liveWorkers(time.Now()); n != 1 {
		t.Fatalf("worker expired during its own idle long-poll (live=%d)", n)
	}
}

// TestResultLineDecoderLimits: the results stream has no whole-body
// cap — a batch of results far larger than any fixed request limit
// decodes line by line — while a single line over maxResultLine is a
// clear error rather than unbounded buffering.
func TestResultLineDecoderLimits(t *testing.T) {
	line, err := json.Marshal(resultLine{Key: strings.Repeat("ab", 32),
		Result: (&harness.Result{Name: "Empty", Attempts: 1}).Wire()})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	want := (10<<20)/len(line) + 1 // stream well past the old 8 MiB body cap
	d := newResultLineDecoder(strings.NewReader(strings.Repeat(string(line), want)))
	got := 0
	for {
		_, res, _, err := d.next()
		if err == errDecodeDone {
			break
		}
		if err != nil {
			t.Fatalf("line %d: %v", got, err)
		}
		if res.Name != "Empty" {
			t.Fatalf("line %d decoded Name %q", got, res.Name)
		}
		got++
	}
	if got != want {
		t.Fatalf("decoded %d lines, want %d", got, want)
	}

	big := `{"key":"` + strings.Repeat("a", maxResultLine) + `"}`
	d = newResultLineDecoder(strings.NewReader(big))
	if _, _, _, err := d.next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized line error = %v, want a limit error", err)
	}
}

// TestClusterLifecycleLeaksNoGoroutines is the goroleak analyzer's
// runtime counterpart: a full coordinator+worker lifecycle — register,
// sweep through the fleet, worker drain/deregister, server Drain —
// must return the process to its starting goroutine count. The
// motivating bug was an idle worker goroutine that outlived its
// context and kept the coordinator routing to a ghost; a leak here
// shows up as a count that never settles back down.
func TestClusterLifecycleLeaksNoGoroutines(t *testing.T) {
	// Let goroutines from earlier tests park before the baseline.
	time.Sleep(100 * time.Millisecond)
	before := runtime.NumGoroutine()

	// Manual lifecycle (no t.Cleanup): the accounting below must run
	// after teardown, inside the test body.
	cs := New(Config{Coordinator: true, EPCPages: testEPC, Seed: 7, Workers: 2})
	ts := httptest.NewServer(cs.Handler())
	ws := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	wk := NewWorker(ws, ts.URL, "leakcheck")
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		wk.Run(ctx)
	}()
	waitForWorkers(t, cs, 1)

	// Real traffic so leaders, the batch fan-out, the heartbeat loop
	// and the results stream all actually spin up.
	lines, terminal := sweepResultLines(t, ts.URL, sweepBody(3))
	if len(lines) != 3 || terminal.Event != "done" || !terminal.OK {
		t.Fatalf("fleet sweep: %d results, terminal %+v", len(lines), terminal)
	}

	// Teardown in drain order: cancel the worker (it deregisters on the
	// way out), drain both servers' leader goroutines, close the
	// listener.
	cancel()
	<-workerDone
	if cs.cluster.liveWorkers(time.Now()) != 0 {
		t.Error("worker still registered after drain; deregister did not land")
	}
	cs.Drain()
	ws.Drain()
	ts.Close()

	// Goroutines park asynchronously (idle HTTP conns, timer reapers);
	// poll until the count settles at the baseline instead of asserting
	// a single racy snapshot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: before=%d, after=%d (never settled); stacks:\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}
