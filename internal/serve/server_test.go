package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// testEPC keeps simulated machines small so tests stay fast while
// still exercising EPC paging.
const testEPC = 2048

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 4, CacheEntries: 256})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, runResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr runResponse
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp, rr
}

func metric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// getHealthz reads the daemon's /healthz, failing the test unless it
// answers 200 with status "ok".
func getHealthz(t *testing.T, baseURL string) healthzResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}
	return hz
}

// TestHealthz: the liveness probe answers.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	if hz := getHealthz(t, ts.URL); hz.Role != "standalone" || hz.Journal != "none" {
		t.Fatalf("healthz role=%q journal=%q, want standalone/none", hz.Role, hz.Journal)
	}
}

// TestRunEveryWorkloadMode is the serving acceptance sweep: every
// suite workload (plus the auxiliary Empty and Iozone) must be
// servable over POST /v1/run in every mode it supports.
func TestRunEveryWorkloadMode(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in -short mode")
	}
	_, ts := newTestServer(t)
	ws := append(suite.All(), suite.Empty(), suite.Iozone())
	for _, w := range ws {
		modes := []string{"Vanilla", "LibOS"}
		if w.NativePort() {
			modes = append(modes, "Native")
		}
		for _, mode := range modes {
			body := fmt.Sprintf(`{"workload":%q,"mode":%q,"size":"Low"}`, w.Name(), mode)
			resp, rr := postRun(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d", w.Name(), mode, resp.StatusCode)
			}
			if rr.Result == nil || rr.Result.Error != "" {
				t.Fatalf("%s/%s: failed result %+v", w.Name(), mode, rr.Result)
			}
			if rr.Result.Name != w.Name() || rr.Result.Mode != mode {
				t.Errorf("%s/%s: result identifies as %s/%s", w.Name(), mode, rr.Result.Name, rr.Result.Mode)
			}
		}
	}
}

// TestRunCacheHit: a repeated identical spec is served from cache,
// observable through the response's cached flag and the /metrics hit
// counter.
func TestRunCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"workload":"BTree","mode":"Native","size":"Low"}`
	_, first := postRun(t, ts, body)
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	_, second := postRun(t, ts, body)
	if !second.Cached {
		t.Fatal("repeated identical spec was not a cache hit")
	}
	if first.Key != second.Key {
		t.Fatalf("keys differ across identical requests: %s vs %s", first.Key, second.Key)
	}
	if hits := metric(t, ts, "sgxgauged_cache_hits_total"); hits < 1 {
		t.Errorf("cache_hits_total = %g, want >= 1", hits)
	}
	if runs := metric(t, ts, "sgxgauged_runs_total"); runs != 1 {
		t.Errorf("runs_total = %g, want 1", runs)
	}

	// The cached result is also addressable by key.
	resp, err := http.Get(ts.URL + "/v1/results/" + first.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/results/%s: status %d", first.Key, resp.StatusCode)
	}
}

// TestRunCoalescing: N concurrent identical requests execute the spec
// exactly once. A gated fake executor holds the leader mid-run until
// every follower has joined, making the exactly-once outcome
// deterministic rather than timing-dependent.
func TestRunCoalescing(t *testing.T) {
	s, ts := newTestServer(t)
	gate := make(chan struct{})
	var calls atomic.Int32
	s.runner.Exec = func(spec harness.Spec) *harness.Result {
		calls.Add(1)
		<-gate
		return &harness.Result{Name: spec.Workload.Name(), Mode: spec.Mode, Cycles: 99, Attempts: 1}
	}

	const n = 8
	body := `{"workload":"BTree","mode":"Native","size":"Low"}`
	var wg sync.WaitGroup
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, rr := postRun(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			keys[i] = rr.Key
		}(i)
	}
	// Release the leader only after all n requests are in: one is the
	// leader, so n-1 must have coalesced.
	deadline := time.After(10 * time.Second)
	for s.runner.Stats().Coalesced < n-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d requests coalesced", s.runner.Stats().Coalesced)
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("spec executed %d times, want exactly 1", got)
	}
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("request %d got key %s, others %s", i, keys[i], keys[0])
		}
	}
	if runs := metric(t, ts, "sgxgauged_runs_total"); runs != 1 {
		t.Errorf("runs_total = %g, want 1", runs)
	}
}

// TestRunCancellationMidRun: a client disconnect abandons the wait
// but not the work — the detached leader finishes, the result lands
// in the cache, and Drain observes the completion.
func TestRunCancellationMidRun(t *testing.T) {
	s, ts := newTestServer(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	s.runner.Exec = func(spec harness.Spec) *harness.Result {
		close(started)
		<-gate
		return &harness.Result{Name: spec.Workload.Name(), Mode: spec.Mode, Cycles: 42, Attempts: 1}
	}

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"workload":"BTree","mode":"Native","size":"Low"}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-started // the run is executing
	cancel()  // client walks away mid-run
	if err := <-errc; err == nil {
		t.Fatal("cancelled request did not error on the client side")
	}

	close(gate) // the detached leader finishes
	s.Drain()

	spec := harness.Spec{Workload: mustWorkload(t, "BTree"), Mode: sgx.Native, Size: workloads.Low}
	key, err := s.runner.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := s.cache.Get(key)
	if !ok {
		t.Fatal("abandoned run's result never reached the cache")
	}
	if res.Cycles != 42 {
		t.Fatalf("cached result Cycles = %d, want the leader's 42", res.Cycles)
	}
}

// TestGracefulDrain: shutting the HTTP server down while a run is in
// flight still delivers that run's response.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	s.runner.Exec = func(spec harness.Spec) *harness.Result {
		close(started)
		<-gate
		return &harness.Result{Name: spec.Workload.Name(), Mode: spec.Mode, Cycles: 7, Attempts: 1}
	}

	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"workload":"BTree","mode":"Native","size":"Low"}`))
		if err != nil {
			respc <- nil
			return
		}
		respc <- resp
	}()
	<-started

	shutdown := make(chan error, 1)
	go func() { shutdown <- ts.Config.Shutdown(context.Background()) }()
	// Shutdown must wait for the in-flight request, not cut it off.
	select {
	case <-shutdown:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	resp := <-respc
	if resp == nil {
		t.Fatal("in-flight request failed during graceful shutdown")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d", resp.StatusCode)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.Drain()
}

// TestSweepStreaming: /v1/sweep streams NDJSON — progress events as
// specs complete, then one result per spec in input order, then a
// done line.
func TestSweepStreaming(t *testing.T) {
	_, ts := newTestServer(t)
	body := `[{"workload":"Empty","mode":"Vanilla","size":"Low"},{"workload":"Empty","mode":"LibOS","size":"Low"}]`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	var events []sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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

	var jobs, progress, results int
	for _, ev := range events {
		switch ev.Event {
		case "job":
			jobs++
			if ev.JobID == "" || ev.Total != 2 {
				t.Errorf("job header = %+v, want an ID and total=2", ev)
			}
			if progress+results > 0 {
				t.Error("job header after other events")
			}
		case "progress":
			progress++
			if results > 0 {
				t.Error("progress event after result events")
			}
		case "result":
			if ev.Result == nil || ev.Result.Error != "" {
				t.Errorf("result %d failed: %+v", ev.Index, ev.Result)
			}
			if ev.Key == "" {
				t.Errorf("result %d has no key", ev.Index)
			}
			results++
		case "done":
			if ev.Error != "" {
				t.Errorf("done reports error %q", ev.Error)
			}
		default:
			t.Errorf("unknown event %q", ev.Event)
		}
	}
	if jobs != 1 || progress != 2 || results != 2 {
		t.Fatalf("got %d job, %d progress, %d result events, want 1/2/2", jobs, progress, results)
	}
	if events[len(events)-1].Event != "done" {
		t.Fatal("stream does not end with a done event")
	}
}

// TestSweepProgressIndexes: in a sweep where some specs are already
// cached, every progress event's Index names its own spec, so the
// journal records each task under its own index and key.
func TestSweepProgressIndexes(t *testing.T) {
	_, ts := newTestServer(t)
	names := []string{"OpenSSL", "HashJoin", "BTree", "Empty"}
	spec := func(name string) string {
		return fmt.Sprintf(`{"workload":%q,"mode":"Vanilla","size":"Low"}`, name)
	}
	for _, i := range []int{0, 2} {
		if resp, _ := postRun(t, ts, spec(names[i])); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming %s: status %d", names[i], resp.StatusCode)
		}
	}
	specs := make([]string, len(names))
	for i, name := range names {
		specs[i] = spec(name)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader("["+strings.Join(specs, ",")+"]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Event != "progress" {
			continue
		}
		if ev.Index < 0 || ev.Index >= len(names) || seen[ev.Index] {
			t.Fatalf("progress event with bad or repeated index: %+v", ev)
		}
		seen[ev.Index] = true
		if ev.Name != names[ev.Index] || ev.Total != len(names) {
			t.Errorf("progress event %+v: want %s at index %d of %d", ev, names[ev.Index], ev.Index, len(names))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(names) {
		t.Errorf("progress events for %d of %d specs", len(seen), len(names))
	}
}

// TestSweepRepeatedSpecProgress: a sweep that repeats one spec runs
// it once, yet streams a progress line for every copy, the last one at
// completed == total; the copies that waited on the run are marked
// cached.
func TestSweepRepeatedSpecProgress(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"workload":"Empty","mode":"Vanilla","size":"Low","seed":11}`
	before := metric(t, ts, "sgxgauged_runs_total")
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader("["+spec+","+spec+","+spec+"]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var progress []sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Event == "progress" {
			progress = append(progress, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(progress) != 3 {
		t.Fatalf("%d progress lines, want 3: %+v", len(progress), progress)
	}
	for i, ev := range progress {
		if ev.Completed != i+1 || ev.Total != 3 || ev.Cached != (i > 0) {
			t.Errorf("progress line %d = %+v, want completed %d of 3, cached %v", i, ev, i+1, i > 0)
		}
	}
	if got := metric(t, ts, "sgxgauged_runs_total") - before; got != 1 {
		t.Errorf("sweep of one spec three times raised runs_total by %g, want 1", got)
	}
}

// TestSweepCountsRuns: sweeps execute through the same Runner as
// /v1/run, so sgxgauged_runs_total counts their executed specs — and
// an identical second sweep, all cache hits, counts none.
func TestSweepCountsRuns(t *testing.T) {
	_, ts := newTestServer(t)
	sweep := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(2)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(body, []byte(`"event":"done","total":2,"ok":true`)) {
			t.Fatalf("sweep did not finish cleanly: %s", body)
		}
	}
	before := metric(t, ts, "sgxgauged_runs_total")
	sweep()
	if got := metric(t, ts, "sgxgauged_runs_total") - before; got != 2 {
		t.Fatalf("sweep of two distinct specs raised runs_total by %g, want 2", got)
	}
	sweep()
	if got := metric(t, ts, "sgxgauged_runs_total") - before; got != 2 {
		t.Fatalf("identical second sweep raised runs_total to +%g, want +2 overall", got)
	}
}

// TestFigures: a known figure renders; an unknown one 404s with the
// valid labels.
func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration in -short mode")
	}
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/figures/7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("Figure 7")) {
		t.Fatalf("figure 7: status %d body %.80q", resp.StatusCode, body)
	}

	// multi's points are scenario specs, so the daemon serves it like
	// any paper figure.
	resp, err = http.Get(ts.URL + "/v1/figures/multi")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("Multi-enclave interference")) {
		t.Fatalf("figure multi: status %d body %.80q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/figures/99")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(body, []byte("t2")) {
		t.Fatalf("figure 99: status %d body %.120q, want 404 listing valid labels", resp.StatusCode, body)
	}
}

// TestBadRequests: malformed specs are 400s with actionable errors.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
		wantCode         int
		wantErr          string
	}{
		{"malformed-json", "/v1/run", `{"workload":`, http.StatusBadRequest, "error"},
		{"unknown-workload", "/v1/run", `{"workload":"NoSuch","mode":"Native","size":"Low"}`, http.StatusBadRequest, "valid:"},
		{"unknown-mode", "/v1/run", `{"workload":"BTree","mode":"Turbo","size":"Low"}`, http.StatusBadRequest, "Vanilla, Native, LibOS"},
		{"unknown-field", "/v1/run", `{"workload":"BTree","mode":"Native","size":"Low","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"removed-l1", "/v1/run", `{"workload":"BTree","mode":"Native","size":"Low","machine":{"l1_bytes":4096}}`, http.StatusBadRequest, "l1_bytes"},
		{"removed-tree-levels", "/v1/run", `{"workload":"BTree","mode":"Native","size":"Low","machine":{"tree_cached_levels":2}}`, http.StatusBadRequest, "tree_cached_levels"},
		{"empty-sweep", "/v1/sweep", `[]`, http.StatusBadRequest, "empty"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.wantCode, body)
		}
		if !bytes.Contains(body, []byte(c.wantErr)) {
			t.Errorf("%s: body %q lacks %q", c.name, body, c.wantErr)
		}
	}

	// Result lookup: malformed key 400, unknown key 404.
	resp, err := http.Get(ts.URL + "/v1/results/zz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/results/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", resp.StatusCode)
	}
}

// TestRunHammer drives /v1/run from 32 goroutines — a mix of
// identical and distinct specs — under the race detector in CI. Every
// response must succeed and identical specs must agree on their key.
func TestRunHammer(t *testing.T) {
	_, ts := newTestServer(t)
	const goroutines = 32
	var wg sync.WaitGroup
	keys := make([]string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := []string{"Vanilla", "LibOS"}[i%2]
			body := fmt.Sprintf(`{"workload":"Empty","mode":%q,"size":"Low"}`, mode)
			resp, rr := postRun(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			keys[i] = rr.Key
		}(i)
	}
	wg.Wait()
	for i := 2; i < goroutines; i++ {
		if keys[i] != keys[i%2] {
			t.Errorf("request %d: key %s differs from same-spec key %s", i, keys[i], keys[i%2])
		}
	}
	if entries := metric(t, ts, "sgxgauged_cache_entries"); entries != 2 {
		t.Errorf("cache_entries = %g, want 2 distinct specs", entries)
	}
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMetricsLibOSBoots: /metrics counts how LibOS runs booted. A
// sweep of two specs sharing a boot builds one template and runs both
// on clones; a later run with the same boot clones the template the
// daemon's Runner kept idle.
func TestMetricsLibOSBoots(t *testing.T) {
	_, ts := newTestServer(t)
	body := `[{"workload":"Empty","mode":"LibOS","size":"Low"},{"workload":"Empty","mode":"LibOS","size":"Medium"}]`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	postRun(t, ts, `{"workload":"Empty","mode":"LibOS","size":"High"}`)
	for kind, want := range map[string]float64{"template": 1, "clone": 3, "in_place": 0} {
		if got := metric(t, ts, `sgxgauged_libos_boots_total{kind="`+kind+`"}`); got != want {
			t.Errorf("libos_boots_total{kind=%q} = %g, want %g", kind, got, want)
		}
	}
}
