package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
	"sgxgauge/internal/store"
)

// decodeEvents scans an NDJSON body into sweepEvents.
func decodeEvents(t *testing.T, r io.Reader) []sweepEvent {
	t.Helper()
	var events []sweepEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestCrashRecoveryReplaysJournal is the crash-recovery acceptance
// test: a coordinator journal holding a half-finished sweep — two of
// four tasks done before the "crash", their results in the store — is
// replayed by a restarted daemon sharing the same store directory. The recovered job re-enqueues, the two completed tasks
// short-circuit through the warm store (zero re-simulation), and a
// reattached client receives the full result set byte-identical to an
// uninterrupted sweep.
func TestCrashRecoveryReplaysJournal(t *testing.T) {
	jdir, sdir := t.TempDir(), t.TempDir()
	var specs []harness.Spec
	if err := json.Unmarshal([]byte(sweepBody(4)), &specs); err != nil {
		t.Fatal(err)
	}

	// Construct the crashed daemon's state directly: a begun journal
	// job and two completed tasks whose results reached the store.
	jl, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(sdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, Store: st})
	rec := journal.Job{ID: "j-crash", Kind: "sweep", CreatedUnix: 1}
	norm := make([]harness.Spec, len(specs))
	for i, sp := range specs {
		norm[i] = seed.runner.Normalize(sp)
		wire, err := norm[i].Wire()
		if err != nil {
			t.Fatal(err)
		}
		rec.Specs = append(rec.Specs, wire)
	}
	if err := jl.Begin(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res := seed.runner.Run(norm[i]); res.Err != nil {
			t.Fatalf("pre-crash run %d: %v", i, res.Err)
		}
	}

	// Restart: fresh journal and store handles on the same directories.
	jl2, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(sdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, Store: st2, Journal: jl2})
	var simulated atomic.Int64
	s2.runner.Exec = func(spec harness.Spec) *harness.Result {
		simulated.Add(1)
		return s2.runner.RunLocal(spec)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	// Before Recover the daemon refuses traffic: 503, journal
	// "recovering".
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Journal != "recovering" {
		t.Fatalf("pre-recovery healthz: %d %+v, want 503/recovering", resp.StatusCode, hz)
	}

	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := jl2.Stats().Replayed; got != 1 {
		t.Fatalf("journal replayed %d jobs, want 1", got)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery healthz: %d, want 200", resp.StatusCode)
	}

	// Reattach by job ID: the full result set, then done. Raw lines are
	// kept for the byte-identity check below.
	resp, err = http.Get(ts.URL + "/v1/jobs/j-crash")
	if err != nil {
		t.Fatal(err)
	}
	var rawResults []string
	var last sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		last = ev
		if ev.Event == "result" {
			rawResults = append(rawResults, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rawResults) != 4 {
		t.Fatalf("reattach streamed %d results, want 4", len(rawResults))
	}
	if last.Event != "done" || !last.OK {
		t.Fatalf("reattach terminal = %+v, want done ok:true", last)
	}

	// Exactly the two cold tasks simulated; the warm two came from the
	// store.
	if got := simulated.Load(); got != 2 {
		t.Fatalf("recovery simulated %d specs, want exactly 2 (store-warm tasks must not re-run)", got)
	}

	// Byte-identical to an uninterrupted sweep on a fresh daemon.
	ref := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()
	refLines, terminal := sweepResultLines(t, rts.URL, sweepBody(4))
	if terminal.Event != "done" || !terminal.OK {
		t.Fatalf("reference terminal = %+v", terminal)
	}
	for i, got := range rawResults {
		if got != refLines[i] {
			t.Fatalf("recovered result %d differs from the uninterrupted sweep:\n recovered: %s\n reference: %s", i, got, refLines[i])
		}
	}
}

// TestRestartRetiresFinishedJob: a journaled job holds one record in
// the journal while it runs and leaves it when it finishes, so a
// daemon rebuilt on the same directories replays nothing of it. The
// finished job is retired like one past maxResidentJobs — a 404
// pointing at /v1/results — and every result its stream carried is
// still served from the store.
func TestRestartRetiresFinishedJob(t *testing.T) {
	jdir, sdir := t.TempDir(), t.TempDir()
	jl, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(sdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, Store: st, Journal: jl})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.runner.Exec = func(spec harness.Spec) *harness.Result {
		<-gate
		return s.runner.RunLocal(spec)
	}
	ts := httptest.NewServer(s.Handler())

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(3)))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("sweep stream ended before its job header: %v", sc.Err())
	}
	var header sweepEvent
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Event != "job" {
		t.Fatalf("first sweep line %q, want the job header (%v)", sc.Text(), err)
	}
	id := header.JobID
	// Every spec is held at the gate: the job is running, and its
	// journal file holds its one job record.
	data, err := os.ReadFile(filepath.Join(jdir, "jobs", id+".ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("running job's journal file holds %d records, want 1:\n%s", n, data)
	}
	close(gate)
	served := make(map[string][]byte)
	var last sweepEvent
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		last = ev
		if ev.Event == "result" {
			wire, err := json.Marshal(ev.Result)
			if err != nil {
				t.Fatal(err)
			}
			served[ev.Key] = wire
		}
	}
	resp.Body.Close()
	if last.Event != "done" || !last.OK || len(served) != 3 {
		t.Fatalf("sweep ended %+v with %d distinct results, want done ok:true and 3", last, len(served))
	}
	ts.Close()
	s.Drain()

	// Restart on the same directories.
	jl2, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(sdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, Store: st2, Journal: jl2})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	if got := jl2.Stats().Replayed; got != 0 {
		t.Fatalf("restart replayed %d jobs, want 0 (the job had finished)", got)
	}

	resp, err = http.Get(ts2.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "/v1/results") {
		t.Fatalf("reattach to the finished job after restart: %d %s, want 404 pointing at /v1/results", resp.StatusCode, body)
	}
	for key, want := range served {
		resp, err := http.Get(ts2.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var rr runResponse
		derr := json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			t.Fatalf("/v1/results/%s after restart: status %d (%v), want 200", key, resp.StatusCode, derr)
		}
		got, err := json.Marshal(rr.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("/v1/results/%s after restart differs from the streamed result:\n got: %s\nwant: %s", key, got, want)
		}
	}
	entries, err := os.ReadDir(filepath.Join(jdir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("jobs/ holds %d files after the job finished, want none", len(entries))
	}
}

// TestJobReattachFrom: GET /v1/jobs/{id}?from=N resumes the result
// stream at the N-th result — a client that already holds N results
// receives each remaining one exactly once — and bad ids/offsets are
// clean client errors.
func TestJobReattachFrom(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(3)))
	if err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, resp.Body)
	resp.Body.Close()
	if events[0].Event != "job" || events[0].JobID == "" {
		t.Fatalf("first sweep line = %+v, want the job header", events[0])
	}
	id := events[0].JobID
	if _, ok := s.lookupJob(id); !ok {
		t.Fatalf("job %s not registered after the sweep", id)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "?from=2")
	if err != nil {
		t.Fatal(err)
	}
	events = decodeEvents(t, resp.Body)
	resp.Body.Close()
	var results []sweepEvent
	for _, ev := range events {
		if ev.Event == "result" {
			results = append(results, ev)
		}
	}
	if len(results) != 1 || results[0].Index != 2 {
		t.Fatalf("from=2 streamed %+v, want exactly the index-2 result", results)
	}
	if last := events[len(events)-1]; last.Event != "done" || !last.OK {
		t.Fatalf("reattach terminal = %+v, want done ok:true", last)
	}

	for path, want := range map[string]int{
		"/v1/jobs/" + id + "?from=bogus": http.StatusBadRequest,
		"/v1/jobs/j-nosuchjob":           http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestAdmissionControl: past the queue high-water mark new jobs are
// shed with 429 + Retry-After while admitted work keeps running; once
// the queue drains, the same request is accepted.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, MaxQueue: 2})
	gate := make(chan struct{})
	s.runner.Exec = func(spec harness.Spec) *harness.Result {
		<-gate
		return s.runner.RunLocal(spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sweepDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(2)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		sweepDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.queued.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never occupied the queue (depth %d)", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	body := `{"workload":"Empty","mode":"Vanilla","size":"Low","seed":99}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run past the high-water mark: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	if got := s.metrics.admissionRejected.Load(); got != 1 {
		t.Fatalf("admissionRejected = %d, want 1", got)
	}

	close(gate)
	if err := <-sweepDone; err != nil {
		t.Fatal(err)
	}
	for s.queued.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained (depth %d)", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the queue drained: status %d, want 200", resp.StatusCode)
	}
}

// TestFigureAdmissionWeight: a figure job is admitted as the specs its
// render runs, not as one. Figure 2 runs 6 specs, so a high-water mark
// of 5 refuses it for good (413) even on an empty queue; Figure 7
// runs 1 and renders exactly as the runner renders it.
func TestFigureAdmissionWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration in -short mode")
	}
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, MaxQueue: 5})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain()
	}()

	resp, err := http.Get(ts.URL + "/v1/figures/2")
	if err != nil {
		t.Fatal(err)
	}
	shed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// No queue drains far enough to admit it: a final 413, no retry hint.
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("figure 2 (6 specs) past a high-water mark of 5: status %d, want 413", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("413 carried Retry-After %q", ra)
	}
	if !strings.Contains(string(shed), "weight 6") || !strings.Contains(string(shed), "high-water mark 5") {
		t.Fatalf("413 body %q does not name the job weight and the mark", shed)
	}
	if d := s.queued.Load(); d != 0 {
		t.Fatalf("shed figure left queue depth %d", d)
	}
	// A figure job recovered from the journal weighs the same.
	jb, ok := s.rebuildJob(journal.Job{ID: "fig2", Kind: "figure", Figure: "2"})
	if !ok {
		t.Fatal("recovered figure 2 job was retired")
	}
	if jb.weight != 6 {
		t.Fatalf("recovered figure 2 job weighs %d, want 6", jb.weight)
	}

	resp, err = http.Get(ts.URL + "/v1/figures/7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure 7 (1 spec): status %d (%s), want 200", resp.StatusCode, body)
	}
	r := harness.NewRunner(testEPC)
	r.Seed = 7
	want, err := harness.RenderFigure(r, "7")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != want {
		t.Errorf("served figure 7 differs from RenderFigure:\n%s\nwant:\n%s", body, want)
	}
}

// TestMainFlagValidation: nonsensical daemon flags fail fast with an
// error naming the flag instead of silently misconfiguring the TTL or
// drain machinery.
func TestMainFlagValidation(t *testing.T) {
	if err := Main([]string{"-worker.ttl", "0s"}); err == nil || !strings.Contains(err.Error(), "worker.ttl") {
		t.Fatalf("-worker.ttl 0s: err = %v, want an error naming the flag", err)
	}
	if err := Main([]string{"-drain", "-1s"}); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("-drain -1s: err = %v, want an error naming the flag", err)
	}
	if err := Main([]string{"-coordinator", "-worker", "http://x"}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-coordinator -worker: err = %v, want the exclusivity error", err)
	}
}

// TestRecoverSkipsLiveJobs: the daemon takes requests while /healthz
// still answers 503, so a sweep can begin — journal file and all —
// before Recover runs. Recover must not replay that live job as a
// crashed one: replaying it would launch it a second time under the
// same ID and count its weight twice in the queue.
func TestRecoverSkipsLiveJobs(t *testing.T) {
	jl, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2, Journal: jl})
	gate := make(chan struct{})
	s.runner.Exec = func(spec harness.Spec) *harness.Result {
		<-gate
		return s.runner.RunLocal(spec)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var release sync.Once
	defer release.Do(func() { close(gate) }) // before ts.Close, on a failed check too

	const weight = 2
	swept := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(weight)))
		if err != nil {
			swept <- -1
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		swept <- strings.Count(string(body), `"event":"result"`)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.queued.Load() != weight {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never admitted: queue depth %d", s.queued.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := jl.Stats().Replayed; got != 0 {
		t.Errorf("Recover replayed %d jobs, want 0 (the only journaled job is live)", got)
	}
	if got := metric(t, ts, "sgxgauged_queue_depth"); got != weight {
		t.Errorf("queue depth %v after Recover, want the live job's weight %d", got, weight)
	}

	release.Do(func() { close(gate) })
	if n := <-swept; n != weight {
		t.Fatalf("sweep streamed %d results, want %d", n, weight)
	}
	s.Drain()
	if st := s.runner.Stats(); st.Executed != weight || st.Coalesced != 0 {
		t.Errorf("runner executed %d specs and coalesced %d, want the job run once: %d and 0", st.Executed, st.Coalesced, weight)
	}
	if got := s.queued.Load(); got != 0 {
		t.Errorf("queue depth %d after the job finished, want 0", got)
	}
}
