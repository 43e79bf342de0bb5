// Package serve implements sgxgauged, the long-running HTTP/JSON
// daemon serving simulated SGXGauge runs. It exposes the unified
// harness API over the wire: single runs (POST /v1/run), streamed
// sweeps (POST /v1/sweep), regenerated paper figures
// (GET /v1/figures/{fig}), content-addressed result lookup
// (GET /v1/results/{key}), Prometheus metrics (GET /metrics) and a
// liveness probe (GET /healthz).
//
// Identical specs are content-addressed by the SHA-256 of their
// canonical JSON encoding (harness.SpecKey): repeated requests are
// cache hits against a sharded bounded LRU. Every cache miss — run,
// sweep or figure — becomes a detached job executing through the one
// shared harness.Runner, whose RunAll coalesces concurrent identical
// specs onto one execution and bounds local simulation at Workers
// across all jobs. A client disconnect abandons the wait but never
// the job: it finishes and populates the cache, so the work is not
// wasted.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/store"
)

// Config parameterizes a Server.
type Config struct {
	// EPCPages is the simulated EPC size forced onto specs that leave
	// it zero (0 = machine default).
	EPCPages int
	// Seed is the base seed forced onto specs that leave it zero.
	Seed int64
	// Workers bounds concurrently executing simulated runs across
	// every job (0 = GOMAXPROCS); it becomes the Runner's Jobs.
	Workers int
	// CacheEntries bounds the result cache (0 = DefaultCacheEntries).
	CacheEntries int
	// Store, when non-nil, is the persistent on-disk result store
	// layered under the in-memory cache: misses fall through to disk,
	// and every fresh result is written through, so a restarted daemon
	// serves previously computed specs without re-simulating.
	Store *store.Store
	// Coordinator makes this daemon a sweep-cluster coordinator: it
	// accepts worker registrations on /v1/cluster/* and farms spec
	// execution out to the fleet instead of simulating locally.
	Coordinator bool
	// WorkerTTL is how long the coordinator lets a worker go silent
	// before rerouting its work (0 = DefaultWorkerTTL).
	WorkerTTL time.Duration
	// Journal, when non-nil, is the write-ahead log every accepted
	// job is recorded in before it executes. A server configured with
	// a Journal answers /healthz with 503 until Recover has replayed
	// it — callers must invoke Recover exactly once after New.
	Journal *journal.Journal
	// Role labels this daemon on /healthz ("standalone",
	// "coordinator", "worker"); empty derives it from Coordinator.
	Role string
	// MaxQueue is the admission high-water mark in specs
	// (0 = DefaultMaxQueue).
	MaxQueue int
	// TaskRetries is the per-task retry budget a coordinator spends
	// before quarantining the task as poisoned (0 =
	// DefaultTaskRetries, negative = no retries).
	TaskRetries int
	// RetryBase is the base delay of the exponential retry backoff
	// (0 = DefaultRetryBase).
	RetryBase time.Duration
}

// Server is the daemon: an http.Handler plus the run machinery behind
// it. Create one with New; the zero value is not usable.
type Server struct {
	runner  *harness.Runner
	cache   *Cache
	metrics *metrics
	// results is the full lookup stack requests read and write: the
	// in-memory cache alone, or — with Config.Store — the cache tiered
	// over the persistent store.
	results harness.ResultCache
	// store is the persistent tier (nil without Config.Store); kept
	// beside results for /metrics.
	store *store.Store
	// cluster is the coordinator's dispatcher (nil unless
	// Config.Coordinator).
	cluster *cluster
	// detached tracks running jobs so Drain can wait for them after
	// the HTTP listener stops.
	detached sync.WaitGroup

	// journal is the write-ahead log (nil without Config.Journal).
	journal *journal.Journal
	// role labels this daemon on /healthz.
	role string
	// maxQueue is the admission high-water mark in specs.
	maxQueue int
	// queued is the admission gauge: specs admitted but not yet
	// finished, across every resident job.
	queued atomic.Int64
	// recovering is set from New until Recover finishes replaying the
	// journal; /healthz reports 503 while it holds.
	recovering atomic.Bool

	jobsMu sync.Mutex
	// jobs is the reattach registry by job ID. guarded by jobsMu
	jobs map[string]*job
	// finishedJobs orders finished job IDs oldest-first for eviction.
	// guarded by jobsMu
	finishedJobs []string
}

// New returns a ready-to-serve daemon.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := NewCache(cfg.CacheEntries)
	r := harness.NewRunner(cfg.EPCPages)
	r.Seed = cfg.Seed
	r.Jobs = workers

	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	role := cfg.Role
	if role == "" {
		role = "standalone"
		if cfg.Coordinator {
			role = "coordinator"
		}
	}
	s := &Server{
		runner:   r,
		cache:    cache,
		metrics:  newMetrics(),
		results:  cache,
		store:    cfg.Store,
		journal:  cfg.Journal,
		role:     role,
		maxQueue: maxQueue,
		jobs:     make(map[string]*job),
	}
	if cfg.Store != nil {
		s.results = store.NewTiered(cache, cfg.Store)
	}
	r.Cache = s.results
	if cfg.Coordinator {
		s.cluster = newCluster(cfg.WorkerTTL, cfg.TaskRetries, cfg.RetryBase, cfg.Journal)
		// Every job — run, sweep, figure — draws on the fleet through
		// the coalescing dispatcher.
		r.Exec = s.execRemote
	}
	if cfg.Journal != nil {
		// Refuse traffic until Recover has replayed the log; a job
		// accepted mid-replay could race its own recovered twin.
		s.recovering.Store(true)
	}
	return s
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	mux.HandleFunc("GET /v1/scenarios", s.instrument("/v1/scenarios", s.handleScenarioList))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("GET /v1/figures/{fig}", s.instrument("/v1/figures", s.handleFigure))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJob))
	mux.HandleFunc("GET /v1/results/{key}", s.instrument("/v1/results", s.handleResult))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cluster != nil {
		mux.HandleFunc("POST /v1/cluster/register", s.instrument("/v1/cluster/register", s.handleClusterRegister))
		// Poll is deliberately uninstrumented: its long-poll dwell time
		// would swamp the latency summary with idle waiting.
		mux.HandleFunc("POST /v1/cluster/poll", s.handleClusterPoll)
		mux.HandleFunc("POST /v1/cluster/heartbeat", s.instrument("/v1/cluster/heartbeat", s.handleClusterHeartbeat))
		mux.HandleFunc("POST /v1/cluster/results", s.instrument("/v1/cluster/results", s.handleClusterResults))
		mux.HandleFunc("POST /v1/cluster/deregister", s.instrument("/v1/cluster/deregister", s.handleClusterDeregister))
	}
	return mux
}

// Drain blocks until every detached job has completed. Call it after
// http.Server.Shutdown: Shutdown waits for the handlers, Drain waits
// for the jobs handlers abandoned to client disconnects.
func (s *Server) Drain() { s.detached.Wait() }

// errBadSpec marks client errors (unencodable specs), answered 400.
var errBadSpec = errors.New("serve: bad spec")

// runResponse is the /v1/run (and per-result /v1/sweep) payload.
type runResponse struct {
	Key    string      `json:"key"`
	Cached bool        `json:"cached"`
	Result *resultWire `json:"result"`
}

// resultWire is the JSON face of a harness.Result: identification,
// timing, functional output, the full counter bank by event name, and
// the spec's own failure (if any) as a string.
type resultWire struct {
	Name          string            `json:"name"`
	Mode          string            `json:"mode"`
	Cycles        uint64            `json:"cycles"`
	StartupCycles uint64            `json:"startup_cycles,omitempty"`
	Checksum      string            `json:"checksum"`
	Ops           int64             `json:"ops"`
	MeanLatency   float64           `json:"mean_latency,omitempty"`
	Counters      map[string]uint64 `json:"counters"`
	Attempts      int               `json:"attempts"`
	Error         string            `json:"error,omitempty"`
}

func wireResult(res *harness.Result) *resultWire {
	if res == nil {
		return nil
	}
	counters := make(map[string]uint64, perf.NumEvents)
	for _, e := range perf.Events() {
		if v := res.Counters.Get(e); v != 0 {
			counters[e.String()] = v
		}
	}
	out := &resultWire{
		Name:          res.Name,
		Mode:          res.Mode.String(),
		Cycles:        res.Cycles,
		StartupCycles: res.StartupCycles,
		Checksum:      fmt.Sprintf("%#x", res.Output.Checksum),
		Ops:           res.Output.Ops,
		MeanLatency:   res.Output.MeanLatency,
		Counters:      counters,
		Attempts:      res.Attempts,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	return out
}

// Request-body caps: a single spec is well under a megabyte; a sweep
// is a list of them.
const (
	maxRunBody   = 1 << 20
	maxSweepBody = 8 << 20
)

// decodeBody decodes the request body into v under a size cap and
// writes the error response when it fails: 413 (naming the cap) when
// the body exceeded the cap, 400 for everything else. It reports
// whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: request body exceeds the %d-byte limit", maxErr.Limit))
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

// handleRun serves POST /v1/run: one SpecWire document in, one
// runResponse out. Workload and scenario specs take exactly the same
// path; only the envelope their canonical encoding carries differs.
// A spec's own failure is still a 200 — the run
// happened and its degraded measurements are the payload — while
// malformed specs are 400, oversized ones 413, shed jobs 429, and
// engine failures 500. A cache hit answers directly; a miss becomes
// a journaled job executing detached from this connection, so a
// disconnected client's run still finishes, lands in the cache, and
// stays reattachable by job ID.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec harness.Spec
	if !decodeBody(w, r, maxRunBody, &spec) {
		return
	}
	key, err := s.runner.Key(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", errBadSpec, err))
		return
	}
	if res, ok := s.results.Get(key); ok {
		writeJSON(w, http.StatusOK, runResponse{Key: key.String(), Cached: true, Result: wireResult(res)})
		return
	}
	jb, err := s.startJob("run", []harness.Spec{spec}, "")
	if err != nil {
		writeJobError(w, err, s)
		return
	}
	if !jb.waitDone(r.Context()) {
		// Client gone; nothing to write. The detached job still
		// finishes the run and caches it.
		return
	}
	if term := jb.terminalEvent(); term.Event == "error" {
		writeError(w, http.StatusInternalServerError, errors.New(term.Error))
		return
	}
	ev, ok := jb.resultEvent(0)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("serve: job finished without a result"))
		return
	}
	writeJSON(w, http.StatusOK, runResponse{Key: ev.Key, Cached: ev.Cached, Result: ev.Result})
}

// writeJobError maps a startJob failure onto the wire: 429 with a
// Retry-After hint for admission shedding, 413 for a job that can
// never fit under the mark, 500 for journal trouble.
func writeJobError(w http.ResponseWriter, err error, s *Server) {
	if errors.Is(err, errTooHeavy) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if errors.Is(err, errOverloaded) {
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// sweepEvent is one NDJSON line of a /v1/sweep (or /v1/jobs) response:
// a {"event":"job"} header naming the job ID clients reattach by,
// progress events as specs complete (cache-hit specs included, marked
// "cached":true), then one result line per spec in input order, then
// exactly one terminal line — {"event":"done","ok":true,...} when the
// batch completed, or {"event":"error",...} when it failed as a
// whole. A stream that ends without either terminal line was
// truncated by the transport; clients must treat it as incomplete and
// may reattach via GET /v1/jobs/{id}?from=N to stream the results
// they have not yet received — the job itself runs detached and
// survives the disconnect.
type sweepEvent struct {
	Event     string      `json:"event"` // "job", "progress", "result", "done", "error"
	JobID     string      `json:"id,omitempty"`
	Completed int         `json:"completed,omitempty"`
	Total     int         `json:"total,omitempty"`
	Index     int         `json:"index,omitempty"`
	Name      string      `json:"name,omitempty"`
	Mode      string      `json:"mode,omitempty"`
	Key       string      `json:"key,omitempty"`
	Cached    bool        `json:"cached,omitempty"`
	Result    *resultWire `json:"result,omitempty"`
	OK        bool        `json:"ok,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// handleSweep serves POST /v1/sweep: a JSON array of SpecWire
// documents in, NDJSON out (see sweepEvent for the line contract).
// The batch becomes a journaled job running detached through the
// unified Runner.RunAll — shared cache, coalescing, worker bound —
// and this handler is merely the job's first attached stream: the
// {"event":"job"} header names the job ID, then every event follows
// as the job appends it. Disconnecting kills the stream but not the
// batch — the job finishes into the cache and store, and the client
// reattaches via GET /v1/jobs/{id} to collect what it missed.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var specs []harness.Spec
	if !decodeBody(w, r, maxSweepBody, &specs) {
		return
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty spec list"))
		return
	}
	jb, err := s.startJob("sweep", specs, "")
	if err != nil {
		writeJobError(w, err, s)
		return
	}

	// From here on the 200 header is committed and the stream itself
	// is the error channel: a write failure kills the stream (never
	// the job), and a job-level failure becomes the terminal error
	// event.
	stream := newNDJSONStream(w)
	if !stream.emit(sweepEvent{Event: "job", JobID: jb.id, Total: len(specs)}) {
		return
	}
	idx := 0
	for {
		evs, finished, wake := jb.snapshotFrom(idx)
		for _, ev := range evs {
			idx++
			if !stream.emit(ev) {
				return
			}
		}
		if finished {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleFigure serves GET /v1/figures/{fig}: the rendered paper
// figure or table as plain text. The render runs as a journaled
// detached job — a disconnect does not abandon it, and a crashed
// daemon re-renders on replay with the store keeping its runs warm —
// while this handler waits for the result. Runs behind it go through
// the shared runner, so regenerating a figure twice is all cache hits.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	fig := r.PathValue("fig")
	if err := harness.CheckFigure(fig); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	jb, err := s.startJob("figure", nil, fig)
	if err != nil {
		writeJobError(w, err, s)
		return
	}
	if !jb.waitDone(r.Context()) {
		// Client gone; the render finishes detached and warms the
		// cache for the next request.
		return
	}
	if term := jb.terminalEvent(); term.Event == "error" {
		writeError(w, http.StatusInternalServerError, errors.New(term.Error))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, jb.figureOutput())
}

// handleResult serves GET /v1/results/{key}: content-addressed lookup
// of a previously computed result by its canonical spec hash.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, err := harness.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, ok := s.results.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no cached result for key %s", key))
		return
	}
	writeJSON(w, http.StatusOK, runResponse{Key: key.String(), Cached: true, Result: wireResult(res)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.cache, s.runner)
	renderAdmissionMetrics(w, s.queued.Load(), s.maxQueue)
	if s.store != nil {
		renderStoreMetrics(w, s.store)
	}
	if s.cluster != nil {
		renderClusterMetrics(w, s.cluster)
	}
	if s.journal != nil {
		renderJournalMetrics(w, s.journal)
	}
}

// healthzResponse is the GET /healthz body: enough operational state
// for a load balancer or operator to judge whether this daemon should
// receive sweeps right now.
type healthzResponse struct {
	Status string `json:"status"` // "ok" or "recovering"
	Role   string `json:"role"`   // "standalone", "coordinator", "worker"
	// Workers is the live registered fleet (coordinator only).
	Workers int `json:"workers"`
	// QueueDepth is the admission gauge: admitted, unfinished specs.
	QueueDepth int64 `json:"queue_depth"`
	// Jobs is the number of resident (live or reattachable) jobs.
	Jobs int `json:"jobs"`
	// Journal reports the write-ahead log state: "none" (not
	// configured), "recovering" (replay still re-enqueuing) or "ok".
	Journal string `json:"journal"`
}

// handleHealthz serves GET /healthz: role-aware liveness. While the
// journal replay is still re-enqueuing jobs the response is 503, so
// load balancers keep sweeps away from a half-recovered coordinator.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:     "ok",
		Role:       s.role,
		QueueDepth: s.queued.Load(),
		Journal:    "none",
	}
	if s.cluster != nil {
		resp.Workers = s.cluster.liveWorkers(time.Now())
	}
	s.jobsMu.Lock()
	resp.Jobs = len(s.jobs)
	s.jobsMu.Unlock()
	code := http.StatusOK
	if s.journal != nil {
		resp.Journal = "ok"
		if s.recovering.Load() {
			resp.Status = "recovering"
			resp.Journal = "recovering"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, resp)
}

// instrument wraps a handler with request counting and latency
// observation for /metrics.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.observe(path, code, time.Since(start).Seconds())
	}
}

// statusWriter records the response code and forwards Flush so NDJSON
// streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An Encode failure means the client disconnected; there is no
	// recovery beyond dropping the response.
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
