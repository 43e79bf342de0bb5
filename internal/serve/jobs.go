package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
)

// maxResidentJobs bounds how many finished jobs stay resident (and
// reattachable) in memory; older ones are evicted oldest-first. After
// a restart every journaled job is reattachable again via the lazy
// replay path, so eviction only narrows the in-process window.
const maxResidentJobs = 256

// DefaultMaxQueue is the admission high-water mark: the number of
// admitted-but-unfinished specs past which new jobs are shed with 429.
const DefaultMaxQueue = 4096

// errOverloaded marks admission-control rejections so handlers map
// them to 429 + Retry-After instead of 500.
var errOverloaded = errors.New("serve: queue full, retry later")

// errTooHeavy marks a job that weighs more specs than the admission
// high-water mark, which no amount of waiting can admit: handlers map
// it to 413 with no Retry-After, so a retrying client stops.
var errTooHeavy = errors.New("serve: job exceeds the admission high-water mark")

// job is one accepted unit of API work — a run, a sweep, or a figure
// render — executing detached from any client connection. Its event
// log is the single source every attached stream reads: handleSweep
// streams it live, GET /v1/jobs/{id} replays it from any offset, and
// a client that disconnects loses nothing but its TCP stream.
//
// A lazy job is a finished job reconstructed from the journal after a
// restart: it has no resident event log, and its result events are
// rebuilt on demand from the content-addressed results (re-executing
// any evicted key — deterministic simulation makes the bytes
// identical either way).
type job struct {
	id     string
	kind   string // "run", "sweep", "figure"
	specs  []harness.Spec
	keys   []harness.Key
	keyOK  []bool
	figure string
	// weight is the job's admission debit, released when it finishes.
	weight int
	lazy   bool

	mu sync.Mutex
	// events is the ordered log of everything the job has emitted.
	// guarded by mu
	events []sweepEvent
	// finished marks the terminal event appended. guarded by mu
	finished bool
	// termErr is the lazy-job terminal error (journaled job-level
	// failure). guarded by mu
	termErr string
	// output is a figure job's rendered text. guarded by mu
	output string
	// notify is closed and replaced on every append, waking streamers.
	// guarded by mu
	notify chan struct{}

	// recMu guards recorded: task indexes already journaled, seeded
	// from the replayed journal state so recovery appends no
	// duplicates.
	recMu sync.Mutex
	// recorded maps task index -> journaled completion. guarded by recMu
	recorded map[int]journal.TaskDone
}

func (jb *job) append(ev sweepEvent) {
	jb.mu.Lock()
	jb.events = append(jb.events, ev)
	if ev.Event == "done" || ev.Event == "error" {
		jb.finished = true
	}
	close(jb.notify)
	jb.notify = make(chan struct{})
	jb.mu.Unlock()
}

// snapshotFrom returns the events appended since index from, whether
// the job is finished, and the channel that will close on the next
// append. The channel is captured under the same lock as the events,
// so a streamer that sees no new events cannot miss the wakeup for
// one appended just after.
func (jb *job) snapshotFrom(from int) ([]sweepEvent, bool, <-chan struct{}) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	var evs []sweepEvent
	if from < len(jb.events) {
		evs = jb.events[from:len(jb.events):len(jb.events)]
	}
	return evs, jb.finished, jb.notify
}

// waitDone blocks until the job appends its terminal event or ctx
// ends, reporting whether the job finished.
func (jb *job) waitDone(ctx context.Context) bool {
	for {
		jb.mu.Lock()
		finished := jb.finished
		ch := jb.notify
		jb.mu.Unlock()
		if finished {
			return true
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		}
	}
}

// terminalEvent returns the job's terminal event; only meaningful
// after waitDone reported true.
func (jb *job) terminalEvent() sweepEvent {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if n := len(jb.events); n > 0 {
		return jb.events[n-1]
	}
	return sweepEvent{Event: "error", Error: "serve: job produced no events"}
}

// resultEvent returns the job's result event for task index i, marked
// cached when its progress event reported a cache hit.
func (jb *job) resultEvent(i int) (sweepEvent, bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	cached := false
	for _, ev := range jb.events {
		if ev.Index != i {
			continue
		}
		switch ev.Event {
		case "progress":
			cached = ev.Cached
		case "result":
			ev.Cached = cached
			return ev, true
		}
	}
	return sweepEvent{}, false
}

func (jb *job) figureOutput() string {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.output
}

// newJob builds a job shell: specs normalized, keys precomputed. A
// figure job carries no specs of its own but weighs as many as its
// render runs.
func (s *Server) newJob(id, kind string, specs []harness.Spec, figure string) *job {
	weight := len(specs)
	if kind == "figure" {
		weight = harness.FigureSpecCount(s.runner, figure)
	}
	jb := &job{
		id:       id,
		kind:     kind,
		specs:    make([]harness.Spec, len(specs)),
		keys:     make([]harness.Key, len(specs)),
		keyOK:    make([]bool, len(specs)),
		figure:   figure,
		weight:   max(weight, 1),
		notify:   make(chan struct{}),
		recorded: make(map[int]journal.TaskDone),
	}
	for i, spec := range specs {
		spec = s.runner.Normalize(spec)
		jb.specs[i] = spec
		if key, err := harness.SpecKey(spec); err == nil {
			jb.keys[i], jb.keyOK[i] = key, true
		}
	}
	return jb
}

// admit debits n specs against the queue high-water mark, reporting
// whether the job may start. Recovered jobs bypass the check (they
// were admitted before the crash) but still occupy the queue.
func (s *Server) admit(n int) bool {
	if s.queued.Add(int64(n)) > int64(s.maxQueue) {
		s.queued.Add(int64(-n))
		s.metrics.admissionRejected.Add(1)
		return false
	}
	return true
}

// retryAfter estimates (in whole seconds) how long a shed client
// should wait before retrying: the queue depth divided by the local
// worker pool, clamped to [1s, 120s]. It is deliberately coarse — the
// point is backpressure, not a schedule.
func (s *Server) retryAfter() int {
	sec := int(s.queued.Load()) / max(s.runner.Jobs, 1)
	if sec < 1 {
		sec = 1
	}
	if sec > 120 {
		sec = 120
	}
	return sec
}

// startJob admits, journals and launches one detached job. The
// journal record is durable before execution starts — write-ahead —
// so a crash at any later point replays the job. The returned job is
// already registered for GET /v1/jobs/{id}.
func (s *Server) startJob(kind string, specs []harness.Spec, figure string) (*job, error) {
	jb := s.newJob(journal.NewID(), kind, specs, figure)
	if jb.weight > s.maxQueue {
		return nil, fmt.Errorf("%w (job weight %d specs, high-water mark %d)", errTooHeavy, jb.weight, s.maxQueue)
	}
	if !s.admit(jb.weight) {
		return nil, fmt.Errorf("%w (queue depth %d, high-water mark %d)", errOverloaded, s.queued.Load(), s.maxQueue)
	}
	if s.journal != nil {
		rec := journal.Job{ID: jb.id, Kind: kind, CreatedUnix: time.Now().Unix(), Figure: figure}
		wireable := true
		for _, spec := range jb.specs {
			wire, err := spec.Wire()
			if err != nil {
				wireable = false
				break
			}
			rec.Specs = append(rec.Specs, wire)
		}
		if wireable {
			if err := s.journal.Begin(rec); err != nil {
				s.queued.Add(int64(-jb.weight))
				return nil, fmt.Errorf("serve: journal begin: %w", err)
			}
		} else {
			// A spec with no canonical encoding cannot be journaled; the
			// job still runs, it just will not survive a crash.
			log.Printf("sgxgauged: job %s has unencodable specs; running unjournaled", jb.id)
		}
	}
	s.registerJob(jb)
	s.launchJob(jb)
	return jb, nil
}

// registerJob makes the job visible to GET /v1/jobs/{id}.
func (s *Server) registerJob(jb *job) {
	s.jobsMu.Lock()
	s.jobs[jb.id] = jb
	s.jobsMu.Unlock()
}

// launchJob runs the job detached, tracked by the detached group so
// Drain waits for it.
func (s *Server) launchJob(jb *job) {
	s.detached.Add(1)
	go func() {
		defer s.detached.Done()
		defer s.retireJob(jb)
		switch jb.kind {
		case "sweep", "run":
			s.runBatchJob(jb)
		case "figure":
			s.runFigureJob(jb)
		default:
			jb.append(sweepEvent{Event: "error", Error: fmt.Sprintf("serve: unknown job kind %q", jb.kind)})
		}
	}()
}

// retireJob releases the job's admission debit and evicts the oldest
// finished jobs beyond the residency cap.
func (s *Server) retireJob(jb *job) {
	s.queued.Add(int64(-jb.weight))
	s.jobsMu.Lock()
	s.finishedJobs = append(s.finishedJobs, jb.id)
	for len(s.finishedJobs) > maxResidentJobs {
		delete(s.jobs, s.finishedJobs[0])
		s.finishedJobs = s.finishedJobs[1:]
	}
	s.jobsMu.Unlock()
}

// lookupJob returns the registered job for id.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.jobsMu.Lock()
	jb, ok := s.jobs[id]
	s.jobsMu.Unlock()
	return jb, ok
}

// journalTask appends one task-completion record, once per index.
func (s *Server) journalTask(jb *job, idx int, taskErr error) {
	if s.journal == nil {
		return
	}
	jb.recMu.Lock()
	defer jb.recMu.Unlock()
	if _, ok := jb.recorded[idx]; ok {
		return
	}
	td := journal.TaskDone{Index: idx}
	if idx < len(jb.keyOK) && jb.keyOK[idx] {
		td.Key = jb.keys[idx].String()
	}
	if taskErr != nil {
		td.Error = taskErr.Error()
	}
	jb.recorded[idx] = td
	if err := s.journal.Task(jb.id, td); err != nil {
		log.Printf("sgxgauged: journal task %s[%d]: %v", jb.id, idx, err)
	}
}

// journalFinish appends the job's terminal record and compacts it.
func (s *Server) journalFinish(jb *job, jobErr string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Finish(jb.id, jobErr); err != nil {
		log.Printf("sgxgauged: journal finish %s: %v", jb.id, err)
	}
}

// runBatchJob executes a run's or a sweep's specs as one batch through
// the unified Runner — shared cache, coalescing, worker bound, remote
// dispatch on a coordinator — appending progress events as specs
// complete (including cache-hit specs, so a warm resume still
// journals every task), then result events in input order, then the
// terminal event.
func (s *Server) runBatchJob(jb *job) {
	results, err := s.runner.RunAll(jb.specs,
		harness.ProgressCached(),
		harness.OnProgress(func(p harness.Progress) {
			s.journalTask(jb, p.Index, p.Err)
			ev := sweepEvent{
				Event:     "progress",
				Completed: p.Completed,
				Total:     p.Total,
				Index:     p.Index,
				Name:      p.Name,
				Mode:      p.Mode.String(),
				Cached:    p.Cached,
			}
			if p.Err != nil {
				ev.Error = p.Err.Error()
			}
			jb.append(ev)
		}))

	for i, res := range results {
		s.journalTask(jb, i, res.Err)
		ev := sweepEvent{Event: "result", Index: i, Result: wireResult(res)}
		if jb.keyOK[i] {
			ev.Key = jb.keys[i].String()
		}
		jb.append(ev)
	}
	if err != nil {
		// Engine-level failure: the job ran without a cancellable
		// context, so this is unreachable in practice, but the terminal
		// contract holds regardless.
		jb.append(sweepEvent{Event: "error", Total: len(jb.specs), Error: err.Error()})
		s.journalFinish(jb, err.Error())
		return
	}
	jb.append(sweepEvent{Event: "done", Total: len(jb.specs), OK: true})
	s.journalFinish(jb, "")
}

// runFigureJob renders one paper figure; the runs behind it flow
// through the shared runner (and on a coordinator, the fleet).
func (s *Server) runFigureJob(jb *job) {
	out, err := harness.RenderFigure(s.runner, jb.figure)
	if err != nil {
		jb.append(sweepEvent{Event: "error", Error: err.Error()})
		s.journalFinish(jb, err.Error())
		return
	}
	jb.mu.Lock()
	jb.output = out
	jb.mu.Unlock()
	jb.append(sweepEvent{Event: "done", OK: true})
	s.journalFinish(jb, "")
}

// Recover replays the journal: every unfinished job is re-enqueued
// for detached execution (tasks whose results already sit in the
// store complete as cache hits without re-simulating), and finished
// jobs are registered lazily so clients can still reattach to them by
// ID. Callers that configure a Journal must call Recover exactly
// once, after the listener is up — the server answers /healthz with
// 503 from New until Recover clears the recovering flag, so load
// balancers keep sweeps away from a half-recovered coordinator.
func (s *Server) Recover() error {
	if s.journal == nil {
		return nil
	}
	defer s.recovering.Store(false)
	states, err := s.journal.Replay()
	if err != nil {
		return err
	}
	requeued, warm := 0, 0
	for _, st := range states {
		jb, ok := s.rebuildJob(st)
		if !ok {
			continue
		}
		s.registerJob(jb)
		if st.Finished {
			continue
		}
		s.queued.Add(int64(jb.weight))
		requeued++
		for i := range jb.specs {
			if jb.keyOK[i] && s.hasResult(jb.keys[i]) {
				warm++
			}
		}
		s.launchJob(jb)
	}
	if requeued > 0 {
		log.Printf("sgxgauged: journal replay re-enqueued %d unfinished jobs (%d tasks already warm in the store)", requeued, warm)
	}
	return nil
}

// hasResult probes the lookup stack for key without loading the
// result into the in-memory cache.
func (s *Server) hasResult(key harness.Key) bool {
	if s.store != nil && s.store.Has(key) {
		return true
	}
	_, ok := s.cache.Get(key)
	return ok
}

// rebuildJob resolves one replayed journal state back into a job. A
// job whose specs no longer resolve (workload renamed between builds)
// is retired in the journal rather than replayed forever.
func (s *Server) rebuildJob(st *journal.JobState) (*job, bool) {
	specs := make([]harness.Spec, 0, len(st.Job.Specs))
	for _, wire := range st.Job.Specs {
		spec, err := wire.Spec()
		if err != nil {
			log.Printf("sgxgauged: journal job %s: unresolvable spec: %v (retiring)", st.Job.ID, err)
			if ferr := s.journal.Finish(st.Job.ID, fmt.Sprintf("unresolvable spec: %v", err)); ferr != nil {
				log.Printf("sgxgauged: journal finish %s: %v", st.Job.ID, ferr)
			}
			return nil, false
		}
		specs = append(specs, spec)
	}
	jb := s.newJob(st.Job.ID, st.Job.Kind, specs, st.Job.Figure)
	jb.recMu.Lock()
	for idx, td := range st.Done {
		jb.recorded[idx] = td
	}
	jb.recMu.Unlock()
	if st.Finished {
		jb.lazy = true
		jb.mu.Lock()
		jb.finished = true
		jb.termErr = st.Err
		jb.mu.Unlock()
	}
	return jb, true
}

// handleJob serves GET /v1/jobs/{id}: an NDJSON reattach stream for a
// live or recovered job. The stream opens with a {"event":"job"}
// header, then carries the job's result events from the ?from=N-th
// one onward (progress events are not replayed — they describe a
// moment, not a result), then the terminal done/error line. A client
// that already received N results reattaches with from=N and receives
// every remaining result exactly once.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb, ok := s.lookupJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q (finished jobs retire after the %d most recent; results remain addressable via /v1/results)", id, maxResidentJobs))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad from=%q (want a non-negative integer)", q))
			return
		}
		from = n
	}
	stream := newNDJSONStream(w)
	if !stream.emit(sweepEvent{Event: "job", JobID: jb.id, Name: jb.kind, Total: len(jb.specs)}) {
		return
	}
	if jb.lazy {
		s.streamLazyJob(r.Context(), stream, jb, from)
		return
	}
	s.streamJobResults(r.Context(), stream, jb, from)
}

// streamJobResults follows a live job's event log, emitting result
// events from the from-th onward and the terminal line. It returns
// when the job finishes, the client disconnects, or a write fails;
// the job itself is unaffected by any of the three.
func (s *Server) streamJobResults(ctx context.Context, stream *ndjsonStream, jb *job, from int) {
	idx, results := 0, 0
	for {
		evs, finished, wake := jb.snapshotFrom(idx)
		for _, ev := range evs {
			idx++
			switch ev.Event {
			case "result":
				results++
				if results <= from {
					continue
				}
			case "done", "error":
			default:
				continue
			}
			if !stream.emit(ev) {
				return
			}
		}
		if finished {
			return
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return
		}
	}
}

// streamLazyJob rebuilds a recovered finished job's result lines from
// the content-addressed results. A key evicted from both cache and
// store is re-executed — simulation is deterministic, so the bytes
// match what the original stream carried.
func (s *Server) streamLazyJob(ctx context.Context, stream *ndjsonStream, jb *job, from int) {
	for i := from; i < len(jb.specs); i++ {
		if ctx.Err() != nil || !stream.alive() {
			return
		}
		var res *harness.Result
		if jb.keyOK[i] {
			res, _ = s.results.Get(jb.keys[i])
		}
		if res == nil {
			var err error
			if res, err = s.runner.Run(jb.specs[i], harness.WithContext(ctx)); err != nil {
				stream.emit(sweepEvent{Event: "error", Total: len(jb.specs), Error: err.Error()})
				return
			}
		}
		ev := sweepEvent{Event: "result", Index: i, Result: wireResult(res)}
		if jb.keyOK[i] {
			ev.Key = jb.keys[i].String()
		}
		if !stream.emit(ev) {
			return
		}
	}
	jb.mu.Lock()
	termErr := jb.termErr
	jb.mu.Unlock()
	if termErr != "" {
		stream.emit(sweepEvent{Event: "error", Total: len(jb.specs), Error: termErr})
		return
	}
	stream.emit(sweepEvent{Event: "done", Total: len(jb.specs), OK: true})
}
