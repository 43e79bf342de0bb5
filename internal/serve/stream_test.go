package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// dyingWriter is a ResponseWriter whose connection breaks after a
// fixed number of successful writes — the server-side view of a
// client that disconnected mid-stream.
type dyingWriter struct {
	header   http.Header
	okWrites int // writes that succeed before the pipe breaks
	writes   int // total Write calls observed
}

func (w *dyingWriter) Header() http.Header { return w.header }
func (w *dyingWriter) WriteHeader(int)     {}
func (w *dyingWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes > w.okWrites {
		return 0, errors.New("write tcp: broken pipe")
	}
	return len(b), nil
}

// TestSweepStopsWritingToDeadClient (regression): once a stream write
// has failed, handleSweep must stop encoding and flushing — the old
// emit ignored Encode errors and kept hammering the dead connection
// with every remaining progress, result and done line.
func TestSweepStopsWritingToDeadClient(t *testing.T) {
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	var specs []string
	for seed := 1; seed <= 4; seed++ {
		specs = append(specs, fmt.Sprintf(`{"workload":"Empty","mode":"Vanilla","size":"Low","seed":%d}`, seed))
	}
	body := "[" + strings.Join(specs, ",") + "]"

	w := &dyingWriter{header: http.Header{}, okWrites: 1}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	s.handleSweep(w, req)

	// One successful write, then the one that discovered the broken
	// pipe; a handler still emitting after that would show up as the
	// remaining ~8 progress/result/done lines.
	if w.writes > w.okWrites+1 {
		t.Fatalf("handler wrote %d times to a stream dead after %d writes", w.writes, w.okWrites)
	}
}

// erroringWriter is a plain io.Writer (the worker's results pipe, not
// a ResponseWriter) that breaks after a fixed number of writes.
type erroringWriter struct {
	ok     int // writes that succeed before the pipe breaks
	writes int // total Write calls observed
}

func (w *erroringWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errors.New("write tcp: broken pipe")
	}
	return len(b), nil
}

// TestNDJSONPipeStopsAfterFirstError (regression): the worker's batch
// results used to go through a bare json.Encoder that ignored every
// Encode error, serializing the whole batch into a pipe whose post had
// already died. newNDJSONPipe must stop touching the writer after the
// first failure.
func TestNDJSONPipeStopsAfterFirstError(t *testing.T) {
	w := &erroringWriter{ok: 2}
	st := newNDJSONPipe(w)
	emitted := 0
	for i := 0; i < 10; i++ {
		if st.emit(i) {
			emitted++
		}
	}
	if emitted != 2 {
		t.Errorf("emit reported %d successes, want 2", emitted)
	}
	// Two good writes plus the one that discovered the break; the
	// remaining seven emits must never reach the writer.
	if w.writes != 3 {
		t.Errorf("writer saw %d writes, want 3", w.writes)
	}
	if st.emit(0) {
		t.Error("emit reported success after a failed write")
	}
	if w.writes != 3 {
		t.Errorf("emit on a dead stream reached the writer: %d writes, want 3", w.writes)
	}
}

// TestSweepDisconnectDetachesJob: a client that disconnects mid-sweep
// no longer cancels the batch — the job runs detached to completion,
// and a reattach via GET /v1/jobs/{id} streams every result exactly
// once, ending with the terminal done line. (This inverts the old
// contract, where the request context was the batch's lifetime.)
func TestSweepDisconnectDetachesJob(t *testing.T) {
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the first event lands
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`[{"workload":"Empty","mode":"Vanilla","size":"Low"}]`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleSweep(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	sc := bufio.NewScanner(rec.Body)
	if !sc.Scan() {
		t.Fatal("aborted stream carried no job header")
	}
	var header sweepEvent
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatal(err)
	}
	if header.Event != "job" || header.JobID == "" {
		t.Fatalf("first line = %+v, want a job header naming the job ID", header)
	}

	jb, ok := s.lookupJob(header.JobID)
	if !ok {
		t.Fatalf("job %s not registered for reattach", header.JobID)
	}
	jb.waitDone(context.Background())
	if term := jb.terminalEvent(); term.Event != "done" || !term.OK {
		t.Fatalf("terminal = %+v, want done ok:true (disconnect must not cancel the batch)", term)
	}

	// Reattach: every result exactly once, then the terminal line.
	req2 := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+header.JobID, nil)
	req2.SetPathValue("id", header.JobID)
	rec2 := httptest.NewRecorder()
	s.handleJob(rec2, req2)
	var events []sweepEvent
	sc = bufio.NewScanner(rec2.Body)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	results := 0
	for _, ev := range events {
		if ev.Event == "result" {
			results++
			if ev.Result == nil || ev.Result.Error != "" {
				t.Fatalf("reattached result = %+v, want a clean result", ev)
			}
		}
	}
	if results != 1 {
		t.Fatalf("reattach streamed %d results, want exactly 1", results)
	}
	if last := events[len(events)-1]; last.Event != "done" || !last.OK {
		t.Fatalf("reattach terminal = %+v, want done ok:true", last)
	}
}

// TestOversizedBody413 (regression): bodies over the MaxBytesReader
// caps must surface as 413 naming the limit, not a generic 400.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path  string
		limit int
	}{
		{"/v1/run", maxRunBody},
		{"/v1/sweep", maxSweepBody},
	}
	for _, c := range cases {
		body := bytes.Repeat([]byte(" "), c.limit+1)
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatalf("%s: decoding error body: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", c.path, resp.StatusCode)
		}
		if !strings.Contains(payload["error"], fmt.Sprint(c.limit)) {
			t.Errorf("%s: error %q does not name the %d-byte limit", c.path, payload["error"], c.limit)
		}
	}
}

// TestSweepDoneOK: a completed batch's terminal line carries ok:true,
// the marker distinguishing it from a truncated stream.
func TestSweepDoneOK(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`[{"workload":"Empty","mode":"Vanilla","size":"Low"}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last sweepEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if last.Event != "done" || !last.OK || last.Error != "" {
		t.Fatalf("terminal event = %+v, want done with ok:true", last)
	}
}
