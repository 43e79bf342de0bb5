package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// workerPollWait is how long each worker poll dwells at the
// coordinator waiting for work.
const workerPollWait = 10 * time.Second

// workerRetryDelay paces reconnection attempts after a failed
// register, poll or results post.
const workerRetryDelay = time.Second

// DefaultDrain is the default graceful-shutdown budget: how long
// in-flight work (HTTP requests on a server, the executing batch on a
// worker) may finish after SIGINT/SIGTERM.
const DefaultDrain = 30 * time.Second

// deregisterTimeout bounds the goodbye post a draining worker sends
// after its final batch.
const deregisterTimeout = 2 * time.Second

// Worker turns a daemon into a sweep-cluster execution node: it
// registers with a coordinator, long-polls for spec batches routed to
// its key shard, executes them through the daemon's own Runner — so a
// warm local cache or store still short-circuits simulation — and
// streams each result back the moment it completes.
//
// The loop is crash-only: any transport failure (coordinator down,
// poll rejected, results post broken) backs off and starts over from
// registration. Results lost in a failed post are not retried as
// results — the worker re-registers, which drops its previous
// incarnation at the coordinator and immediately reroutes every task
// it still held; results are content-addressed, so re-execution
// converges on identical bytes. While a batch executes, a background
// heartbeat keeps the registration alive so a single spec that
// simulates longer than the coordinator's TTL does not get the whole
// batch rerouted mid-run.
type Worker struct {
	server      *Server
	coordinator string // base URL, e.g. http://127.0.0.1:8643
	id          string
	client      *http.Client
	// heartbeatEvery paces keep-alives during batch execution; set
	// from the coordinator's advertised TTL at registration.
	heartbeatEvery time.Duration
	// Drain bounds how long an in-flight batch may keep executing —
	// and its results post stay open — after Run's context is
	// cancelled, so a SIGTERM'd worker lands finished work at the
	// coordinator instead of forcing re-simulation elsewhere.
	Drain time.Duration

	executed  atomic.Uint64 // specs executed for the coordinator
	postFails atomic.Uint64 // result posts that died mid-stream
}

// NewWorker returns a worker that executes on s's runner for the
// coordinator at the given base URL. id must be unique per worker
// process (the daemon uses its listen address).
func NewWorker(s *Server, coordinator, id string) *Worker {
	return &Worker{
		server:         s,
		coordinator:    coordinator,
		id:             id,
		client:         &http.Client{},
		heartbeatEvery: DefaultWorkerTTL / 3,
		Drain:          DefaultDrain,
	}
}

// Run drives the register/poll/execute loop until ctx is cancelled.
// It always returns nil on cancellation; transient failures are
// logged and retried, never fatal.
func (w *Worker) Run(ctx context.Context) error {
	registered := false
loop:
	for ctx.Err() == nil {
		if !registered {
			if err := w.register(ctx); err != nil {
				if ctx.Err() != nil {
					break
				}
				log.Printf("sgxgauged: worker %s: register: %v (retrying)", w.id, err)
				sleepCtx(ctx, workerRetryDelay)
				continue
			}
			registered = true
			log.Printf("sgxgauged: worker %s: registered with %s", w.id, w.coordinator)
		}
		batch, err := w.poll(ctx)
		switch {
		case ctx.Err() != nil:
			// Cancelled mid-poll (the idle worker's common drain path);
			// fall through to the goodbye below.
			break loop
		case err == errUnknownWorker:
			// Coordinator restarted or expired us; re-register.
			registered = false
			continue
		case err != nil:
			log.Printf("sgxgauged: worker %s: poll: %v (retrying)", w.id, err)
			registered = false
			sleepCtx(ctx, workerRetryDelay)
			continue
		}
		if len(batch) == 0 {
			continue
		}
		if err := w.executeBatch(ctx, batch); err != nil {
			w.postFails.Add(1)
			// Re-register rather than keep polling: polling would
			// refresh lastSeen and keep the dropped batch assigned
			// forever, while re-registration drops this incarnation at
			// the coordinator and reroutes every task it held.
			registered = false
			log.Printf("sgxgauged: worker %s: results post: %v (re-registering so the coordinator reroutes)", w.id, err)
			sleepCtx(ctx, workerRetryDelay)
		}
	}
	// Graceful drain: the batch (if any) has finished and posted under
	// the drain budget above; tell the coordinator goodbye so our
	// queued work reroutes immediately instead of waiting out the TTL.
	w.deregister()
	return nil
}

// deregister posts the drain goodbye on a fresh short-lived context
// (Run's own context is already cancelled by the time this runs).
// Best-effort: a coordinator that already expired us answers 404,
// which is the same outcome.
func (w *Worker) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), deregisterTimeout)
	defer cancel()
	var resp deregisterResponse
	err := w.post(ctx, "/v1/cluster/deregister", deregisterRequest{Worker: w.id}, &resp)
	switch {
	case err == nil, err == errUnknownWorker:
		log.Printf("sgxgauged: worker %s: deregistered", w.id)
	default:
		log.Printf("sgxgauged: worker %s: deregister: %v (coordinator will expire us by TTL)", w.id, err)
	}
}

// register announces the worker to the coordinator and adopts its
// advertised TTL as the heartbeat cadence (a third of the TTL, so two
// beats can be lost before expiry).
func (w *Worker) register(ctx context.Context) error {
	var resp registerResponse
	if err := w.post(ctx, "/v1/cluster/register", registerRequest{Worker: w.id}, &resp); err != nil {
		return err
	}
	if resp.TTLMS > 0 {
		every := time.Duration(resp.TTLMS) * time.Millisecond / 3
		if every < 100*time.Millisecond {
			every = 100 * time.Millisecond
		}
		w.heartbeatEvery = every
	}
	return nil
}

// heartbeatLoop posts keep-alives until ctx is cancelled. Failures are
// ignored: an expired registration surfaces on the next poll as
// errUnknownWorker, and a dead transport surfaces on the results post.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp heartbeatResponse
			//sgxlint:ignore droppederr keep-alives are best-effort; an expired registration surfaces on the next poll, a dead transport on the results post
			w.post(ctx, "/v1/cluster/heartbeat", heartbeatRequest{Worker: w.id}, &resp)
		}
	}
}

// poll long-polls the coordinator for the next batch of assignments.
func (w *Worker) poll(ctx context.Context) ([]taskAssignment, error) {
	var resp pollResponse
	req := pollRequest{Worker: w.id, Max: w.server.runner.Jobs, WaitMS: workerPollWait.Milliseconds()}
	if err := w.post(ctx, "/v1/cluster/poll", req, &resp); err != nil {
		return nil, err
	}
	return resp.Specs, nil
}

// executeBatch runs the batch's specs concurrently — the poll asked
// for at most the runner's Jobs of them, and the runner's worker bound
// caps local simulation — and streams each result line back over one
// chunked NDJSON POST as it completes, so the coordinator can settle
// early keys while later ones are still simulating.
func (w *Worker) executeBatch(ctx context.Context, batch []taskAssignment) error {
	// Drain semantics: once ctx is cancelled (SIGTERM) the in-flight
	// batch keeps executing and the results post stays open for up to
	// w.Drain, so finished work lands at the coordinator instead of
	// being re-simulated elsewhere. batchCtx outlives ctx for exactly
	// that window; past it the post is torn down and the coordinator
	// reroutes whatever never arrived.
	batchCtx, cancelBatch := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelBatch()
	batchDone := make(chan struct{})
	defer close(batchDone)
	//sgxlint:detached drain watcher exits on the deferred close(batchDone) above; channel-joined, not WaitGroup-joined
	go func() {
		select {
		case <-batchDone:
		case <-ctx.Done():
			t := time.NewTimer(w.Drain)
			defer t.Stop()
			select {
			case <-batchDone:
			case <-t.C:
				cancelBatch()
			}
		}
	}()

	// Keep the registration alive while the batch simulates: the
	// results stream only touches the coordinator as lines land, so a
	// single spec slower than the TTL would otherwise expire the
	// worker and reroute the whole batch. Beats follow batchCtx so a
	// draining worker stays registered until its final post lands.
	hbCtx, stopHeartbeat := context.WithCancel(batchCtx)
	defer stopHeartbeat()
	//sgxlint:detached heartbeat loop returns when the deferred stopHeartbeat cancels hbCtx; nothing to wait on
	go w.heartbeatLoop(hbCtx)

	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(batchCtx, http.MethodPost,
		w.coordinator+"/v1/cluster/results?worker="+w.id, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	postErr := make(chan error, 1)
	//sgxlint:detached post goroutine delivers exactly one value on the buffered postErr channel, received before executeBatch returns
	go func() {
		resp, err := w.client.Do(req)
		if err != nil {
			// Unblock any encoder still writing into the pipe.
			pr.CloseWithError(err)
			postErr <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			postErr <- fmt.Errorf("serve: results post: coordinator returned %s", resp.Status)
			return
		}
		postErr <- nil
	}()

	// The stream serializes result lines onto the pipe and remembers
	// the first write error: once the post dies, later results skip
	// serialization entirely instead of encoding into a broken pipe
	// line after line. The post goroutine above reports the transport
	// error and the coordinator reroutes whatever never arrived.
	stream := newNDJSONPipe(pw)
	var wg sync.WaitGroup
	for _, t := range batch {
		wg.Add(1)
		go func(t taskAssignment) {
			defer wg.Done()
			line := w.executeOne(t)
			if line.Failed != "" {
				log.Printf("sgxgauged: worker %s: spec %s: %s (reporting failure; coordinator charges its retry budget)", w.id, t.Key, line.Failed)
			}
			stream.emit(line)
		}(t)
	}
	wg.Wait()
	pw.Close()
	return <-postErr
}

// executeOne runs one assignment through the local runner and shapes
// the result for the wire. A spec's own failure travels inside the
// result line; an undecodable spec travels as a failed line, so the
// coordinator charges the task's retry budget instead of leaving it
// assigned to us forever.
func (w *Worker) executeOne(t taskAssignment) resultLine {
	spec, err := t.Spec.Spec()
	if err != nil {
		return resultLine{Key: t.Key, Failed: fmt.Sprintf("bad assignment spec: %v", err)}
	}
	// Run, not RunLocal: the worker's runner owns caching here, so a
	// result already in its memory cache or on-disk store is served
	// without booting a machine.
	res := w.server.runner.Run(spec)
	w.executed.Add(1)
	return resultLine{Key: t.Key, Result: res.Wire()}
}

// post sends one JSON request and decodes the JSON response into out.
// An errUnknownWorker response is returned as that sentinel so the
// loop re-registers.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return errUnknownWorker
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("serve: %s: coordinator returned %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
