package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
	"sgxgauge/internal/store"
)

// metrics is the daemon's own instrumentation: request counts and
// latencies per endpoint and admission rejections. The run, coalescing
// and worker-slot series are read from the Runner at scrape time.
// Everything renders in Prometheus text exposition format on /metrics.
type metrics struct {
	mu sync.Mutex
	// requests counts finished requests per "path\x00code". // guarded by mu
	requests map[string]uint64
	// latSum accumulates request seconds per path. // guarded by mu
	latSum map[string]float64
	// latCount counts latency observations per path. // guarded by mu
	latCount map[string]uint64

	admissionRejected atomic.Uint64 // jobs shed with 429 past the queue high-water mark
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]uint64),
		latSum:   make(map[string]float64),
		latCount: make(map[string]uint64),
	}
}

// observe records one finished request.
func (m *metrics) observe(path string, code int, seconds float64) {
	key := fmt.Sprintf("%s\x00%d", path, code)
	m.mu.Lock()
	m.requests[key]++
	m.latSum[path] += seconds
	m.latCount[path]++
	m.mu.Unlock()
}

// render writes the Prometheus text exposition. Label sets print in
// sorted order so consecutive scrapes of an idle daemon are
// byte-identical.
func (m *metrics) render(w io.Writer, cache *Cache, r *harness.Runner) {
	m.mu.Lock()
	requests := make(map[string]uint64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	latSum := make(map[string]float64, len(m.latSum))
	for k, v := range m.latSum {
		latSum[k] = v
	}
	latCount := make(map[string]uint64, len(m.latCount))
	for k, v := range m.latCount {
		latCount[k] = v
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP sgxgauged_http_requests_total Finished HTTP requests by path and status code.")
	fmt.Fprintln(w, "# TYPE sgxgauged_http_requests_total counter")
	for _, k := range sortedKeys(requests) {
		path, code, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(w, "sgxgauged_http_requests_total{path=%q,code=%q} %d\n", path, code, requests[k])
	}

	fmt.Fprintln(w, "# HELP sgxgauged_http_request_seconds Request latency sum and count by path.")
	fmt.Fprintln(w, "# TYPE sgxgauged_http_request_seconds summary")
	for _, path := range sortedKeys(latCount) {
		fmt.Fprintf(w, "sgxgauged_http_request_seconds_sum{path=%q} %g\n", path, latSum[path])
		fmt.Fprintf(w, "sgxgauged_http_request_seconds_count{path=%q} %d\n", path, latCount[path])
	}

	hits, misses, evictions := cache.Stats()
	fmt.Fprintln(w, "# HELP sgxgauged_cache_hits_total Result-cache hits.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cache_hits_total counter")
	fmt.Fprintf(w, "sgxgauged_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP sgxgauged_cache_misses_total Result-cache misses.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cache_misses_total counter")
	fmt.Fprintf(w, "sgxgauged_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP sgxgauged_cache_evictions_total Results evicted from the bounded cache.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cache_evictions_total counter")
	fmt.Fprintf(w, "sgxgauged_cache_evictions_total %d\n", evictions)
	fmt.Fprintln(w, "# HELP sgxgauged_cache_entries Results currently cached.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cache_entries gauge")
	fmt.Fprintf(w, "sgxgauged_cache_entries %d\n", cache.Len())

	st := r.Stats()
	fmt.Fprintln(w, "# HELP sgxgauged_workers Worker slots: specs that may simulate locally at once, across all jobs.")
	fmt.Fprintln(w, "# TYPE sgxgauged_workers gauge")
	fmt.Fprintf(w, "sgxgauged_workers %d\n", r.Jobs)
	fmt.Fprintln(w, "# HELP sgxgauged_workers_busy Worker slots currently simulating a spec.")
	fmt.Fprintln(w, "# TYPE sgxgauged_workers_busy gauge")
	fmt.Fprintf(w, "sgxgauged_workers_busy %d\n", st.Busy)
	fmt.Fprintln(w, "# HELP sgxgauged_runs_inflight Distinct specs currently executing or queued for execution, across runs, sweeps and figures.")
	fmt.Fprintln(w, "# TYPE sgxgauged_runs_inflight gauge")
	fmt.Fprintf(w, "sgxgauged_runs_inflight %d\n", st.InFlight)
	fmt.Fprintln(w, "# HELP sgxgauged_runs_total Specs executed by runs, sweeps and figures (cache hits and coalesced specs excluded).")
	fmt.Fprintln(w, "# TYPE sgxgauged_runs_total counter")
	fmt.Fprintf(w, "sgxgauged_runs_total %d\n", st.Executed)
	fmt.Fprintln(w, "# HELP sgxgauged_runs_coalesced_total Cache misses served by waiting on an identical in-flight execution.")
	fmt.Fprintln(w, "# TYPE sgxgauged_runs_coalesced_total counter")
	fmt.Fprintf(w, "sgxgauged_runs_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintln(w, "# HELP sgxgauged_libos_boots_total LibOS boots of local runs: builds of a boot configuration's template, clones of it, and boots in place.")
	fmt.Fprintln(w, "# TYPE sgxgauged_libos_boots_total counter")
	fmt.Fprintf(w, "sgxgauged_libos_boots_total{kind=\"template\"} %d\n", st.TemplateBuilds)
	fmt.Fprintf(w, "sgxgauged_libos_boots_total{kind=\"clone\"} %d\n", st.ClonedBoots)
	fmt.Fprintf(w, "sgxgauged_libos_boots_total{kind=\"in_place\"} %d\n", st.InPlaceBoots)
	fmt.Fprintln(w, "# HELP sgxgauged_admission_rejected_total Jobs shed with 429 because the queue was past its high-water mark.")
	fmt.Fprintln(w, "# TYPE sgxgauged_admission_rejected_total counter")
	fmt.Fprintf(w, "sgxgauged_admission_rejected_total %d\n", m.admissionRejected.Load())
}

// renderAdmissionMetrics appends the admission queue-depth gauge.
func renderAdmissionMetrics(w io.Writer, depth int64, maxQueue int) {
	fmt.Fprintln(w, "# HELP sgxgauged_queue_depth Specs admitted and not yet finished.")
	fmt.Fprintln(w, "# TYPE sgxgauged_queue_depth gauge")
	fmt.Fprintf(w, "sgxgauged_queue_depth %d\n", depth)
	fmt.Fprintln(w, "# HELP sgxgauged_queue_high_water Admission high-water mark (429 past this depth).")
	fmt.Fprintln(w, "# TYPE sgxgauged_queue_high_water gauge")
	fmt.Fprintf(w, "sgxgauged_queue_high_water %d\n", maxQueue)
}

// renderJournalMetrics appends the crash-recovery journal's series.
func renderJournalMetrics(w io.Writer, jl *journal.Journal) {
	st := jl.Stats()
	fmt.Fprintln(w, "# HELP sgxgauged_journal_records_total Records written to the job journal: one per accepted job, plus poison records.")
	fmt.Fprintln(w, "# TYPE sgxgauged_journal_records_total counter")
	fmt.Fprintf(w, "sgxgauged_journal_records_total %d\n", st.Records)
	fmt.Fprintln(w, "# HELP sgxgauged_journal_replayed_total Unfinished jobs re-enqueued by startup replay.")
	fmt.Fprintln(w, "# TYPE sgxgauged_journal_replayed_total counter")
	fmt.Fprintf(w, "sgxgauged_journal_replayed_total %d\n", st.Replayed)
	fmt.Fprintln(w, "# HELP sgxgauged_journal_quarantined_total Unreadable journal files set aside during replay.")
	fmt.Fprintln(w, "# TYPE sgxgauged_journal_quarantined_total counter")
	fmt.Fprintf(w, "sgxgauged_journal_quarantined_total %d\n", st.Quarantined)
	fmt.Fprintln(w, "# HELP sgxgauged_journal_poisoned Poison records currently quarantined.")
	fmt.Fprintln(w, "# TYPE sgxgauged_journal_poisoned gauge")
	fmt.Fprintf(w, "sgxgauged_journal_poisoned %d\n", st.Poisoned)
}

// renderStoreMetrics appends the persistent result store's series:
// the on-disk entry count and the lifetime hit/miss/put/quarantine
// counters.
func renderStoreMetrics(w io.Writer, st *store.Store) {
	hits, misses, puts, putErrors, quarantined := st.Stats()
	fmt.Fprintln(w, "# HELP sgxgauged_store_entries Results currently persisted on disk.")
	fmt.Fprintln(w, "# TYPE sgxgauged_store_entries gauge")
	fmt.Fprintf(w, "sgxgauged_store_entries %d\n", st.Len())
	fmt.Fprintln(w, "# HELP sgxgauged_store_hits_total Result-store read hits.")
	fmt.Fprintln(w, "# TYPE sgxgauged_store_hits_total counter")
	fmt.Fprintf(w, "sgxgauged_store_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP sgxgauged_store_misses_total Result-store read misses.")
	fmt.Fprintln(w, "# TYPE sgxgauged_store_misses_total counter")
	fmt.Fprintf(w, "sgxgauged_store_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP sgxgauged_store_puts_total Results newly persisted to disk.")
	fmt.Fprintln(w, "# TYPE sgxgauged_store_puts_total counter")
	fmt.Fprintf(w, "sgxgauged_store_puts_total %d\n", puts)
	fmt.Fprintln(w, "# HELP sgxgauged_store_put_errors_total Persist attempts that failed (results still served from memory).")
	fmt.Fprintln(w, "# TYPE sgxgauged_store_put_errors_total counter")
	fmt.Fprintf(w, "sgxgauged_store_put_errors_total %d\n", putErrors)
	fmt.Fprintln(w, "# HELP sgxgauged_store_quarantined_total Corrupt entries moved to the quarantine directory.")
	fmt.Fprintln(w, "# TYPE sgxgauged_store_quarantined_total counter")
	fmt.Fprintf(w, "sgxgauged_store_quarantined_total %d\n", quarantined)
}

// renderClusterMetrics appends the coordinator's fleet series.
func renderClusterMetrics(w io.Writer, c *cluster) {
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_workers Live registered workers.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_workers gauge")
	fmt.Fprintf(w, "sgxgauged_cluster_workers %d\n", c.liveWorkers(time.Now()))
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_dispatched_total Specs handed to a worker.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_dispatched_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_dispatched_total %d\n", c.dispatched.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_completed_total Specs finished by a worker result.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_completed_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_completed_total %d\n", c.completed.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_requeued_total Task reroutes after a worker went silent past its TTL.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_requeued_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_requeued_total %d\n", c.requeued.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_local_runs_total Tasks executed on the coordinator itself (no live worker owned them).")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_local_runs_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_local_runs_total %d\n", c.localRuns.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_stale_results_total Worker results for closed tasks or from workers that no longer own them.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_stale_results_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_stale_results_total %d\n", c.stale.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_rejected_results_total Worker results inconsistent with their task's spec, dropped before reaching the cache.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_rejected_results_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_rejected_results_total %d\n", c.rejected.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_task_retries_total Failed task attempts charged against retry budgets.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_task_retries_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_task_retries_total %d\n", c.retries.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_poisoned_tasks_total Tasks quarantined after exhausting their retry budget.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_poisoned_tasks_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_poisoned_tasks_total %d\n", c.poisonedTotal.Load())
	fmt.Fprintln(w, "# HELP sgxgauged_cluster_drained_workers_total Workers that deregistered gracefully.")
	fmt.Fprintln(w, "# TYPE sgxgauged_cluster_drained_workers_total counter")
	fmt.Fprintf(w, "sgxgauged_cluster_drained_workers_total %d\n", c.drained.Load())
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
