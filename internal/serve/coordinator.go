package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
)

// DefaultWorkerTTL is how long a registered worker may go without
// polling (or posting results) before the coordinator declares it
// dead and reroutes its work.
const DefaultWorkerTTL = 15 * time.Second

// maxPollWait caps a worker's requested long-poll duration.
const maxPollWait = 30 * time.Second

// DefaultTaskRetries is the per-task retry budget: how many failed
// attempts (worker expiries while assigned, worker-reported
// failures, lost incarnations) a task absorbs before it is
// quarantined as poisoned instead of rerouted again.
const DefaultTaskRetries = 3

// DefaultRetryBase is the base delay of the exponential retry
// backoff; retry n parks the task for roughly base<<(n-1), jittered.
const DefaultRetryBase = 250 * time.Millisecond

// maxRetryDelay caps the exponential backoff.
const maxRetryDelay = 15 * time.Second

// maxTaskHistory bounds a task's recorded attempt history.
const maxTaskHistory = 32

// cluster is the coordinator's dispatcher: registered workers pull
// spec batches, execute them on their own machines, and stream
// results back; the coordinator routes each spec to one worker by key
// shard and coalesces duplicate in-flight keys so a spec requested by
// ten concurrent sweeps crosses the wire — and simulates — once.
//
// Failure semantics: a worker that stops polling (or heartbeating)
// past the TTL is expired and its queued and assigned tasks reroute
// to the surviving workers; with no workers left a task is orphaned
// until either a new worker registers or a waiting request claims it
// for local execution. A result is accepted only from the live worker
// the task is currently assigned to, and only when it matches the
// task's spec — anything else is dropped as stale (late, reassigned,
// replayed) or rejected (mislabeled, forged) without touching the
// cache or store. Results are content-addressed, so dropping a
// duplicate loses nothing.
type cluster struct {
	ttl        time.Duration
	maxRetries int
	retryBase  time.Duration
	// journal receives poison records (nil = in-memory quarantine
	// only).
	journal *journal.Journal

	mu sync.Mutex
	// workers holds the live fleet by id. // guarded by mu
	workers map[string]*clusterWorker
	// pending holds the one open task per key (queued, assigned,
	// parked or orphaned) that worker results settle against.
	// // guarded by mu
	pending map[harness.Key]*clusterTask
	// orphans are tasks routed nowhere: no live worker owned their
	// shard when they were (re)routed. // guarded by mu
	orphans []*clusterTask
	// poisoned maps quarantined keys to the failure message their
	// submissions fail fast with. // guarded by mu
	poisoned map[harness.Key]string

	dispatched    atomic.Uint64 // tasks handed to a worker
	completed     atomic.Uint64 // tasks finished by a worker result
	requeued      atomic.Uint64 // task reroutes after a worker expiry
	localRuns     atomic.Uint64 // orphaned tasks claimed for local execution
	stale         atomic.Uint64 // results for closed tasks or from non-owners
	rejected      atomic.Uint64 // results inconsistent with their task's spec
	retries       atomic.Uint64 // failed attempts charged against retry budgets
	poisonedTotal atomic.Uint64 // tasks quarantined after exhausting their budget
	drained       atomic.Uint64 // workers that deregistered gracefully
}

// clusterWorker is one registered worker's dispatch state.
type clusterWorker struct {
	id string
	// queue holds routed tasks the worker has not pulled yet.
	queue []*clusterTask
	// assigned holds pulled tasks awaiting results.
	assigned map[harness.Key]*clusterTask
	// wake pokes a long-polling worker when work arrives.
	wake chan struct{}
	// lastSeen is the worker's latest register/poll/results contact.
	lastSeen time.Time
}

// clusterTask is one in-flight spec execution. res and err are
// written before done is closed and read only after; every other
// field is guarded by the cluster lock.
type clusterTask struct {
	key  harness.Key
	spec harness.Spec
	// worker is the owning worker's id, "" while orphaned or parked.
	worker string
	// claimed marks an orphaned task a waiter took for local
	// execution; finished guards against double completion (a local
	// claim racing a late worker result).
	claimed  bool
	finished bool
	// parked marks a task sitting out its retry backoff; an AfterFunc
	// reroutes it when the delay elapses. A parked task is not an
	// orphan: claimOrphan leaves it to the reroute.
	parked bool
	// retries counts failed attempts charged against the budget.
	retries int
	// history records the task's routing and failure history, oldest
	// first, capped at maxTaskHistory.
	history []string

	done chan struct{}
	res  *harness.Result
	err  error
}

// noteLocked appends one attempt-history entry. caller holds mu.
func (t *clusterTask) noteLocked(entry string) {
	if len(t.history) >= maxTaskHistory {
		t.history = append(t.history[:0], t.history[len(t.history)-maxTaskHistory+1:]...)
	}
	t.history = append(t.history, entry)
}

func newCluster(ttl time.Duration, maxRetries int, retryBase time.Duration, jl *journal.Journal) *cluster {
	if ttl <= 0 {
		ttl = DefaultWorkerTTL
	}
	switch {
	case maxRetries == 0:
		maxRetries = DefaultTaskRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	if retryBase <= 0 {
		retryBase = DefaultRetryBase
	}
	// Preload the persisted quarantine so poisoned specs fail fast
	// across restarts instead of burning a fresh budget each boot.
	poisoned := make(map[harness.Key]string)
	if jl != nil {
		for hexKey, rec := range jl.Poisoned() {
			key, err := harness.ParseKey(hexKey)
			if err != nil {
				continue
			}
			poisoned[key] = poisonMessage(key, len(rec.Attempts), rec.Attempts)
		}
	}
	return &cluster{
		ttl:        ttl,
		maxRetries: maxRetries,
		retryBase:  retryBase,
		journal:    jl,
		workers:    make(map[string]*clusterWorker),
		pending:    make(map[harness.Key]*clusterTask),
		poisoned:   poisoned,
	}
}

// poisonMessage renders the failure a poisoned key's submissions are
// answered with, attempt history included.
func poisonMessage(key harness.Key, attempts int, history []string) string {
	msg := fmt.Sprintf("serve: task %s poisoned after %d failed attempts", key, attempts)
	if len(history) > 0 {
		msg += " [" + strings.Join(history, "; ") + "]"
	}
	return msg
}

// register adds (or resets) a worker. Re-registration under a live id
// reroutes whatever the previous incarnation held — the worker
// restarting means those pulls are gone. Orphaned tasks route onto
// the refreshed fleet.
func (c *cluster) register(id string, now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if prev, ok := c.workers[id]; ok {
		delete(c.workers, id)
		// The previous incarnation's pulled tasks died with it; charge
		// their retry budgets like an expiry. Queued tasks were never
		// attempted and reroute free.
		c.dropWorkerLocked(prev, fmt.Sprintf("worker %s re-registered (previous incarnation dropped)", id), true)
	}
	c.workers[id] = &clusterWorker{
		id:       id,
		assigned: make(map[harness.Key]*clusterTask),
		wake:     make(chan struct{}, 1),
		lastSeen: now,
	}
	orphans := c.orphans
	c.orphans = nil
	for _, t := range orphans {
		c.routeLocked(t)
	}
	return len(c.workers)
}

// submit opens the task for key. It returns the task plus — when no
// live worker could own it — whether the caller must execute it
// locally instead.
//
// At most one task per key is open: submit's one caller, execRemote,
// runs as the Runner's Exec, and the Runner's per-key flights call
// Exec at most once per key at a time (served specs never carry Hooks,
// the one class that bypasses the flights). So no task for key is
// pending on entry, and a second open task would be a bookkeeping bug.
func (c *cluster) submit(key harness.Key, spec harness.Spec, now time.Time) (t *clusterTask, runLocal bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if msg, ok := c.poisoned[key]; ok {
		// Quarantined: fail fast with the recorded attempt history
		// instead of burning another budget. The failure travels as a
		// failed result (not an engine error) so callers surface it per
		// spec and nothing reaches the cache or store.
		t = &clusterTask{key: key, spec: spec, finished: true, done: make(chan struct{})}
		t.res = poisonResult(spec, msg)
		close(t.done)
		return t, false
	}
	if _, ok := c.pending[key]; ok {
		panic(fmt.Sprintf("serve: second open cluster task for key %s", key))
	}
	t = &clusterTask{key: key, spec: spec, done: make(chan struct{})}
	c.pending[key] = t
	if len(c.workers) == 0 {
		t.claimed = true
		c.localRuns.Add(1)
		return t, true
	}
	c.routeLocked(t)
	return t, false
}

// claimOrphan expires dead workers and, if that (or an earlier
// expiry) left t on the orphan list, hands it to the caller for local
// execution. Waiters call this periodically so a fleet that died
// entirely cannot strand them. Only orphans qualify: a task parked in
// retry backoff also has no worker, but its reroute onto the live
// fleet is pending.
func (c *cluster) claimOrphan(t *clusterTask, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	for i, o := range c.orphans {
		if o == t {
			c.orphans = append(c.orphans[:i], c.orphans[i+1:]...)
			t.claimed = true
			c.localRuns.Add(1)
			return true
		}
	}
	return false
}

// routeLocked assigns t to the live worker owning its key shard, or
// parks it with the orphans when the fleet is empty. Sharding is by
// the key's leading digest byte over the sorted worker ids, so
// routing is stable while the fleet is, and every node computes the
// same assignment from the same fleet view. caller holds mu.
func (c *cluster) routeLocked(t *clusterTask) {
	if t.finished || t.claimed {
		return
	}
	if len(c.workers) == 0 {
		t.worker = ""
		c.orphans = append(c.orphans, t)
		return
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w := c.workers[ids[int(t.key[0])%len(ids)]]
	t.worker = w.id
	w.queue = append(w.queue, t)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// expireLocked drops workers that have gone quiet past the TTL and
// reroutes everything they held. caller holds mu.
func (c *cluster) expireLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.ttl {
			delete(c.workers, id)
			c.dropWorkerLocked(w, fmt.Sprintf("worker %s expired after TTL", id), true)
		}
	}
}

// dropWorkerLocked reroutes a removed worker's queued and assigned
// tasks. The caller has already removed it from the fleet map, so
// rerouting lands elsewhere (or on the orphan list). Queued tasks were
// never attempted and always reroute free; assigned (pulled) tasks are
// charged a retry when penalizeAssigned is set — an expiry or lost
// incarnation means the attempt failed — but not on a graceful drain,
// where the worker handed the task back untouched. caller holds mu.
func (c *cluster) dropWorkerLocked(w *clusterWorker, reason string, penalizeAssigned bool) {
	queued := w.queue
	assigned := make([]*clusterTask, 0, len(w.assigned))
	for _, t := range w.assigned {
		assigned = append(assigned, t)
	}
	w.queue = nil
	w.assigned = make(map[harness.Key]*clusterTask)
	for _, t := range queued {
		if t.finished || t.claimed {
			continue
		}
		t.worker = ""
		t.noteLocked(reason + " (task queued, rerouted)")
		c.requeued.Add(1)
		c.routeLocked(t)
	}
	for _, t := range assigned {
		if t.finished || t.claimed {
			continue
		}
		t.worker = ""
		if penalizeAssigned {
			c.retryLocked(t, reason)
			continue
		}
		t.noteLocked(reason + " (task rerouted, no penalty)")
		c.requeued.Add(1)
		c.routeLocked(t)
	}
}

// retryLocked charges one failed attempt against t's budget: within
// budget the task parks for an exponential, key-jittered backoff and
// then reroutes; past it the task is poisoned. caller holds mu.
func (c *cluster) retryLocked(t *clusterTask, reason string) {
	t.retries++
	t.noteLocked(fmt.Sprintf("attempt %d failed: %s", t.retries, reason))
	c.retries.Add(1)
	if t.retries > c.maxRetries {
		c.poisonLocked(t)
		return
	}
	c.requeued.Add(1)
	t.parked = true
	delay := retryDelay(c.retryBase, t.retries, t.key)
	time.AfterFunc(delay, func() { c.unpark(t) })
}

// unpark ends a task's backoff and routes it onto the current fleet.
func (c *cluster) unpark(t *clusterTask) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.finished || t.claimed || !t.parked {
		return
	}
	t.parked = false
	c.routeLocked(t)
}

// retryDelay is the backoff before retry n (1-based): base<<(n-1)
// capped at maxRetryDelay, with a deterministic ±25% jitter drawn from
// the task key so identical retry storms across a fleet of specs
// de-synchronize the same way on every run.
func retryDelay(base time.Duration, retry int, key harness.Key) time.Duration {
	d := base
	for i := 1; i < retry && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	jitter := d / 4 * time.Duration(int(key[1])-128) / 128
	d += jitter
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// poisonLocked quarantines a task that exhausted its retry budget: it
// finishes with a failed result carrying the attempt history, future
// submissions of its key fail fast, and the quarantine is persisted
// through the journal when one is attached. caller holds mu.
func (c *cluster) poisonLocked(t *clusterTask) {
	msg := poisonMessage(t.key, t.retries, t.history)
	c.poisoned[t.key] = msg
	c.poisonedTotal.Add(1)
	c.finishLocked(t, poisonResult(t.spec, msg), nil)
	if c.journal == nil {
		return
	}
	rec := journal.PoisonRecord{Key: t.key.String(), Attempts: append([]string(nil), t.history...)}
	if wire, err := t.spec.Wire(); err == nil {
		rec.Spec = &wire
	}
	jl := c.journal
	// Persist off the lock; losing the record on crash only means the
	// budget is re-burned once after restart.
	//sgxlint:detached one-shot journal append; best-effort by design, the record is redundant with the in-memory quarantine
	go func() {
		if err := jl.Poison(rec); err != nil {
			log.Printf("serve: persisting poison record for %s: %v", rec.Key, err)
		}
	}()
}

// poisonResult is the failed result a poisoned task finishes with. It
// travels as a spec failure (Result.Err), not an engine error, so a
// sweep carries it alongside healthy rows and nothing caches it.
func poisonResult(spec harness.Spec, msg string) *harness.Result {
	res := &harness.Result{Mode: spec.Mode, Err: errors.New(msg)}
	res.Name = spec.WorkloadName()
	return res
}

// poll long-polls for up to max tasks routed to worker id, blocking
// until work arrives, wait elapses, or ctx ends. It reports
// errUnknownWorker when id is not registered (expired, or the
// coordinator restarted) so the worker re-registers.
func (c *cluster) poll(ctx context.Context, id string, max int, wait time.Duration) ([]*clusterTask, error) {
	if max <= 0 {
		max = 1
	}
	if wait < 0 {
		wait = 0
	}
	if wait > maxPollWait {
		wait = maxPollWait
	}
	// Dwelling longer than the TTL would expire an idle worker inside
	// its own long-poll; returning by ttl/2 keeps lastSeen fresh.
	if wait > c.ttl/2 {
		wait = c.ttl / 2
	}
	deadline := time.Now().Add(wait)
	for {
		now := time.Now()
		c.mu.Lock()
		c.expireLocked(now)
		w, ok := c.workers[id]
		if !ok {
			c.mu.Unlock()
			return nil, errUnknownWorker
		}
		w.lastSeen = now
		n := min(max, len(w.queue))
		batch := w.queue[:n:n]
		w.queue = w.queue[n:]
		for _, t := range batch {
			w.assigned[t.key] = t
		}
		wake := w.wake
		c.mu.Unlock()
		if len(batch) > 0 {
			c.dispatched.Add(uint64(len(batch)))
			return batch, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// complete finishes the open task for key with a worker-computed
// result, reporting whether the result was accepted. Acceptance
// requires that the posting worker is live, currently owns the task,
// actually pulled it, and that the result identifies as the task's
// spec — the results endpoint is unauthenticated, so anything a
// worker posts is validated against the coordinator's own record of
// what it handed out before it can reach the shared cache and store.
// Unknown, finished, locally claimed and reassigned keys count as
// stale; a never-pulled key or a result naming the wrong
// workload/mode counts as rejected. Results are content-addressed, so
// dropping a duplicate loses nothing.
func (c *cluster) complete(workerID string, key harness.Key, res *harness.Result, now time.Time) bool {
	c.mu.Lock()
	w, live := c.workers[workerID]
	if live {
		w.lastSeen = now
	}
	t, open := c.pending[key]
	if !open || t.finished || t.claimed || !live || t.worker != workerID {
		if live {
			delete(w.assigned, key)
		}
		c.mu.Unlock()
		c.stale.Add(1)
		return false
	}
	if _, pulled := w.assigned[key]; !pulled {
		// Routed but never pulled: the task is still queued and will
		// execute normally; this post cannot be its result.
		c.mu.Unlock()
		c.rejected.Add(1)
		return false
	}
	if !resultMatchesSpec(res, t.spec) {
		// The owning worker posted a result that cannot be this
		// task's. Fail the task loudly rather than leave it assigned
		// forever (the worker keeps polling, so it never expires) or
		// reroute it back into the same buggy worker's shard.
		c.finishLocked(t, nil, fmt.Errorf("serve: worker %s posted a result inconsistent with the spec for key %s", workerID, key))
		c.mu.Unlock()
		c.rejected.Add(1)
		return false
	}
	c.finishLocked(t, res, nil)
	c.mu.Unlock()
	c.completed.Add(1)
	return true
}

// resultMatchesSpec checks that a posted result plausibly came from
// executing spec: the registry name (workload or scenario) and mode
// it identifies as must be the spec's own. The spec key itself cannot
// be recomputed from a result, so this is a consistency check, not a
// proof — it catches mislabeled keys from buggy workers and casually
// forged posts.
func resultMatchesSpec(res *harness.Result, spec harness.Spec) bool {
	name := spec.WorkloadName()
	return res != nil && name != "" && res.Name == name && res.Mode == spec.Mode
}

// heartbeat refreshes a worker's lastSeen without pulling work,
// reporting whether the worker is (still) registered. Workers beat
// while executing a batch so specs slower than the TTL do not expire
// them mid-run.
func (c *cluster) heartbeat(id string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	w, ok := c.workers[id]
	if ok {
		w.lastSeen = now
	}
	return ok
}

// fail records a worker-reported execution failure for the open task
// on key, charging its retry budget, and reports whether the failure
// was attributed. Validation mirrors complete: only the live owner of
// a pulled task may fail it.
func (c *cluster) fail(workerID string, key harness.Key, reason string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, live := c.workers[workerID]
	if live {
		w.lastSeen = now
	}
	t, open := c.pending[key]
	if !open || t.finished || t.claimed || !live || t.worker != workerID {
		if live {
			delete(w.assigned, key)
		}
		c.stale.Add(1)
		return false
	}
	if _, pulled := w.assigned[key]; !pulled {
		c.rejected.Add(1)
		return false
	}
	delete(w.assigned, key)
	t.worker = ""
	c.retryLocked(t, fmt.Sprintf("worker %s reported failure: %s", workerID, reason))
	return true
}

// deregister removes a draining worker and reroutes everything it
// held with no retry penalty: the worker finished (and posted) its
// in-flight batch before deregistering, so whatever remains was never
// attempted. Reports whether the worker was registered.
func (c *cluster) deregister(id string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	delete(c.workers, id)
	c.drained.Add(1)
	c.dropWorkerLocked(w, fmt.Sprintf("worker %s drained", id), false)
	return true
}

// finish settles a locally executed (claimed) task.
func (c *cluster) finish(t *clusterTask, res *harness.Result, err error) {
	c.mu.Lock()
	if t.finished {
		c.mu.Unlock()
		return
	}
	c.finishLocked(t, res, err)
	c.mu.Unlock()
}

// finishLocked retires the task and wakes every waiter.
// caller holds mu.
func (c *cluster) finishLocked(t *clusterTask, res *harness.Result, err error) {
	t.finished = true
	delete(c.pending, t.key)
	if t.worker != "" {
		if w, ok := c.workers[t.worker]; ok {
			delete(w.assigned, t.key)
			for i, q := range w.queue {
				if q == t {
					w.queue = append(w.queue[:i], w.queue[i+1:]...)
					break
				}
			}
		}
	}
	t.res, t.err = res, err
	close(t.done)
}

// liveWorkers reports the current fleet size (after expiry).
func (c *cluster) liveWorkers(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	return len(c.workers)
}

// errUnknownWorker tells a polling worker it must re-register.
var errUnknownWorker = fmt.Errorf("serve: unknown worker (register first)")

// claimRecheck is how often a waiter on a dispatched task rechecks
// for fleet death; it bounds how long a task can sit orphaned with no
// worker and no one claiming it.
const claimRecheck = time.Second

// execRemote is the coordinator's executor: it satisfies
// harness.Runner.Exec, so every job — run, sweep, figure — draws on
// the fleet through the same dispatcher. Identical concurrent specs
// were already coalesced by the Runner, which calls Exec at most once
// per key at a time; each call therefore opens its own cluster task
// (see submit). Specs with no canonical encoding and tasks orphaned by
// total fleet loss fall back to Runner.RunLocal.
func (s *Server) execRemote(spec harness.Spec) (*harness.Result, error) {
	spec = s.runner.Normalize(spec)
	key, err := harness.SpecKey(spec)
	if err != nil {
		return s.runner.RunLocal(spec), nil
	}
	t, runLocal := s.cluster.submit(key, spec, time.Now())
	if runLocal {
		res := s.runner.RunLocal(spec)
		s.cluster.finish(t, res, nil)
		return res, nil
	}
	for {
		timer := time.NewTimer(claimRecheck)
		select {
		case <-t.done:
			timer.Stop()
			return t.res, t.err
		case <-timer.C:
			if s.cluster.claimOrphan(t, time.Now()) {
				res := s.runner.RunLocal(spec)
				s.cluster.finish(t, res, nil)
				return res, nil
			}
		}
	}
}

// --- cluster HTTP wire ---

// registerRequest is the POST /v1/cluster/register body.
type registerRequest struct {
	Worker string `json:"worker"`
}

// registerResponse acknowledges a registration and advertises the
// coordinator's worker TTL so the worker can pace its heartbeats.
type registerResponse struct {
	Workers int   `json:"workers"`
	TTLMS   int64 `json:"ttl_ms"`
}

// heartbeatRequest is the POST /v1/cluster/heartbeat body.
type heartbeatRequest struct {
	Worker string `json:"worker"`
}

// heartbeatResponse acknowledges a keep-alive.
type heartbeatResponse struct {
	OK bool `json:"ok"`
}

// pollRequest is the POST /v1/cluster/poll body.
type pollRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
	WaitMS int64  `json:"wait_ms"`
}

// taskAssignment is one dispatched spec in a poll response.
type taskAssignment struct {
	Key  string           `json:"key"`
	Spec harness.SpecWire `json:"spec"`
}

// pollResponse carries a batch of assignments (possibly empty).
type pollResponse struct {
	Specs []taskAssignment `json:"specs"`
}

// resultLine is one NDJSON line of a POST /v1/cluster/results body.
// Failed, when non-empty, reports that the worker could not execute
// the spec at all (decode failure, harness panic) — Result is absent
// and the coordinator charges the task's retry budget instead of
// leaving it assigned forever.
type resultLine struct {
	Key    string             `json:"key"`
	Result harness.ResultWire `json:"result"`
	Failed string             `json:"failed,omitempty"`
}

// deregisterRequest is the POST /v1/cluster/deregister body.
type deregisterRequest struct {
	Worker string `json:"worker"`
}

// deregisterResponse acknowledges a graceful drain.
type deregisterResponse struct {
	OK bool `json:"ok"`
}

// resultsResponse acknowledges a results stream.
type resultsResponse struct {
	Accepted int `json:"accepted"`
}

// handleClusterRegister serves POST /v1/cluster/register.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, maxRunBody, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: empty worker id"))
		return
	}
	n := s.cluster.register(req.Worker, time.Now())
	writeJSON(w, http.StatusOK, registerResponse{Workers: n, TTLMS: s.cluster.ttl.Milliseconds()})
}

// handleClusterHeartbeat serves POST /v1/cluster/heartbeat: a
// keep-alive workers send while a batch executes, since neither
// polling nor the results stream touches the coordinator during a
// long simulation. Unknown workers get 404 so they re-register.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, maxRunBody, &req) {
		return
	}
	if !s.cluster.heartbeat(req.Worker, time.Now()) {
		writeError(w, http.StatusNotFound, errUnknownWorker)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{OK: true})
}

// handleClusterPoll serves POST /v1/cluster/poll: a long-poll that
// returns up to max routed specs for the worker.
func (s *Server) handleClusterPoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if !decodeBody(w, r, maxRunBody, &req) {
		return
	}
	tasks, err := s.cluster.poll(r.Context(), req.Worker, req.Max, time.Duration(req.WaitMS)*time.Millisecond)
	switch {
	case err == errUnknownWorker:
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		// Worker disconnected mid-poll; nothing to write.
		return
	}
	resp := pollResponse{Specs: make([]taskAssignment, 0, len(tasks))}
	for _, t := range tasks {
		wire, werr := t.spec.Wire()
		if werr != nil {
			// Unreachable: execRemote runs unencodable specs locally
			// and never submits them. Fail the task rather than lose
			// it silently: its waiter gets the encoding error.
			s.cluster.finish(t, nil, werr)
			continue
		}
		resp.Specs = append(resp.Specs, taskAssignment{Key: t.key.String(), Spec: wire})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterResults serves POST /v1/cluster/results: an NDJSON
// stream of completed results, accepted incrementally so a sweep
// waiting on an early key unblocks before the worker's whole batch
// lands. The stream as a whole is unbounded — it is consumed line by
// line, and a batch of full-fidelity results (timelines, op stats)
// can legitimately run far past any fixed body cap — but each line is
// capped at maxResultLine. An accepted result settles the task the
// posting worker actually holds, which wakes that task's execRemote
// waiter; the Runner batch behind the waiter then files the result in
// the shared cache (and store), so this handler never writes the
// cache itself. Stale and rejected lines are dropped without being
// counted as accepted.
func (s *Server) handleClusterResults(w http.ResponseWriter, r *http.Request) {
	workerID := r.URL.Query().Get("worker")
	dec := newResultLineDecoder(r.Body)
	accepted := 0
	for {
		key, res, failed, err := dec.next()
		if err == errDecodeDone {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if failed != "" {
			// The worker could not execute the spec; charge the retry
			// budget (reroute or poison) rather than count it accepted.
			s.cluster.fail(workerID, key, failed, time.Now())
			continue
		}
		if !s.cluster.complete(workerID, key, res, time.Now()) {
			continue
		}
		accepted++
	}
	writeJSON(w, http.StatusOK, resultsResponse{Accepted: accepted})
}

// handleClusterDeregister serves POST /v1/cluster/deregister: a
// draining worker's goodbye after it has finished and posted its final
// batch. Its remaining queued work reroutes immediately — and with no
// retry penalty — instead of waiting out the TTL. Unknown workers get
// 404 (already expired, or the coordinator restarted); drain treats
// that as success.
func (s *Server) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	var req deregisterRequest
	if !decodeBody(w, r, maxRunBody, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: empty worker id"))
		return
	}
	if !s.cluster.deregister(req.Worker, time.Now()) {
		writeError(w, http.StatusNotFound, errUnknownWorker)
		return
	}
	writeJSON(w, http.StatusOK, deregisterResponse{OK: true})
}

// errDecodeDone is resultLineDecoder's clean end-of-stream marker.
var errDecodeDone = errors.New("serve: result stream complete")

// maxResultLine caps one line of a results stream. The cap is per
// line, not per stream: memory is bounded by the largest single
// result, while a long batch of large results streams through
// unimpeded.
const maxResultLine = 8 << 20

// resultLineDecoder reads one resultLine per call from an NDJSON
// stream, rehydrating the canonical wire form into a harness.Result.
type resultLineDecoder struct {
	sc *bufio.Scanner
}

func newResultLineDecoder(r io.Reader) *resultLineDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxResultLine)
	return &resultLineDecoder{sc: sc}
}

// next returns the stream's next key/result pair (or key/failure
// pair, when the worker reported it could not execute the spec),
// errDecodeDone at clean end of stream, or the first malformed line's
// error.
func (d *resultLineDecoder) next() (harness.Key, *harness.Result, string, error) {
	for d.sc.Scan() {
		raw := bytes.TrimSpace(d.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var line resultLine
		if err := dec.Decode(&line); err != nil {
			return harness.Key{}, nil, "", fmt.Errorf("serve: bad result line: %w", err)
		}
		key, err := harness.ParseKey(line.Key)
		if err != nil {
			return harness.Key{}, nil, "", err
		}
		if line.Failed != "" {
			return key, nil, line.Failed, nil
		}
		res, err := line.Result.Result()
		if err != nil {
			return harness.Key{}, nil, "", err
		}
		return key, res, "", nil
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("serve: result line exceeds the %d-byte limit", maxResultLine)
		}
		return harness.Key{}, nil, "", fmt.Errorf("serve: bad result line: %w", err)
	}
	return harness.Key{}, nil, "", errDecodeDone
}
