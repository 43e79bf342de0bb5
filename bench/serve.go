package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/serve"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/store"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/scenario"
	"sgxgauge/internal/workloads/suite"
)

// warmGap is the open-loop client's arrival gap: 200 req/s.
const warmGap = 5 * time.Millisecond

// serveChild runs the daemon over a fresh store and journal until the
// parent closes stdin. One simulation worker leaves the second core to
// the HTTP path, so warm latency measures service code, not the
// scheduler.
func serveChild(cfg childConfig, ready func(string) error) (childReport, error) {
	dir, err := os.MkdirTemp("", "sgxbench-serve-")
	if err != nil {
		return childReport{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return childReport{}, fmt.Errorf("opening store: %w", err)
	}
	jl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return childReport{}, fmt.Errorf("opening journal: %w", err)
	}
	s := serve.New(serve.Config{EPCPages: epcPages, Workers: 1, Store: st, Journal: jl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return childReport{}, err
	}
	srv := &http.Server{Handler: s.Handler()}
	var wg sync.WaitGroup
	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- srv.Serve(ln)
	}()
	runErr := s.Recover()
	if runErr == nil {
		runErr = ready(ln.Addr().String())
	}
	if runErr == nil {
		// The parent closes stdin once its clients are done.
		_, runErr = io.Copy(io.Discard, os.Stdin)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && runErr == nil {
		runErr = fmt.Errorf("shutdown: %w", err)
	}
	s.Drain()
	wg.Wait()
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) && runErr == nil {
		runErr = err
	}
	return childReport{}, runErr
}

// serveSweeps generates the cold sweeps: each has three workload specs
// at Low input with unique seeds plus one consensus scenario spec.
func serveSweeps(seed int64, short bool) ([][]harness.Spec, error) {
	n := 40
	if short {
		n = 2
	}
	consensus, err := scenario.New("consensus", 0)
	if err != nil {
		return nil, err
	}
	ws := suite.All()
	sweeps := make([][]harness.Spec, n)
	for i := range sweeps {
		for j := 0; j < 3; j++ {
			w := ws[(3*i+j)%len(ws)]
			mode := sgx.Vanilla
			if j == 1 && w.NativePort() {
				mode = sgx.Native
			}
			sweeps[i] = append(sweeps[i], harness.Spec{Workload: w, Mode: mode, Size: workloads.Low, Seed: specSeed(seed, 4*i+j)})
		}
		sweeps[i] = append(sweeps[i], harness.Spec{Scenario: &consensus, Mode: sgx.Native, Seed: specSeed(seed, 4*i+3)})
	}
	return sweeps, nil
}

// wireResult is the part of the daemon's result payload the bench
// checks.
type wireResult struct {
	Cycles   uint64            `json:"cycles"`
	Startup  uint64            `json:"startup_cycles"`
	Checksum string            `json:"checksum"`
	Counters map[string]uint64 `json:"counters"`
	Error    string            `json:"error"`
}

type sweepLine struct {
	Event  string      `json:"event"`
	Index  int         `json:"index"`
	Key    string      `json:"key"`
	Result *wireResult `json:"result"`
	OK     bool        `json:"ok"`
	Error  string      `json:"error"`
}

// coldResult is one completed cold spec, the target of warm reads.
type coldResult struct {
	body []byte // the spec's wire form
	key  string
	res  wireResult
}

// serveRep is what the parent measured against one serve-mixed child.
type serveRep struct {
	sweepsS  float64
	sweepMS  []float64
	warmMS   []float64 // from each request's due time
	lateMS   []float64 // how late the generator itself sent
	ops      int
	failed   []error
	digest   string
	counters perf.Snapshot // summed over cold results
	cycles   uint64
	startup  uint64
	scrape   map[string]float64
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// driveServe is the parent's load against one daemon: a closed-loop
// client posting the cold sweeps one after another on this goroutine,
// and an open-loop client on one more goroutine posting warm runs of
// already completed specs every warmGap, each timed from its due time.
func driveServe(ctx context.Context, addr string, seed int64, short bool) (*serveRep, error) {
	base := "http://" + addr
	sweeps, err := serveSweeps(seed, short)
	if err != nil {
		return nil, err
	}
	sweepClient, warmClient := newClient(), newClient()
	defer sweepClient.CloseIdleConnections()
	defer warmClient.CloseIdleConnections()

	rep := &serveRep{}
	gen := &warmGen{rng: rand.New(rand.NewSource(seed))}
	h := sha256.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i, sweep := range sweeps {
		t := time.Now()
		res, err := postSweep(ctx, sweepClient, base, sweep)
		rep.sweepMS = append(rep.sweepMS, float64(time.Since(t))/1e6)
		rep.ops++
		if err != nil {
			rep.failed = append(rep.failed, fmt.Errorf("sweep %d: %w", i, err))
			continue
		}
		for _, c := range res {
			writeColdDigest(h, c)
			for _, e := range perf.Events() {
				rep.counters[e] += c.res.Counters[e.String()]
			}
			rep.cycles += c.res.Cycles
			rep.startup += c.res.Startup
		}
		if gen.add(res) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen.run(ctx, warmClient, base, stop)
			}()
		}
	}
	rep.sweepsS = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	rep.digest = hex.EncodeToString(h.Sum(nil))
	rep.warmMS, rep.lateMS = gen.warmMS, gen.lateMS
	rep.ops += gen.ops
	rep.failed = append(rep.failed, gen.failed...)
	rep.scrape, err = scrapeMetrics(ctx, sweepClient, base)
	return rep, err
}

// writeColdDigest folds one cold result into the serve-mixed digest.
func writeColdDigest(h hash.Hash, c coldResult) {
	fmt.Fprintf(h, "%s %d %s", c.key, c.res.Cycles, c.res.Checksum)
	for _, e := range perf.Events() {
		fmt.Fprintf(h, " %d", c.res.Counters[e.String()])
	}
	fmt.Fprintln(h)
}

// postSweep posts one sweep and reads its NDJSON stream; a stream that
// ends without {"event":"done","ok":true} or carries a failed result
// is an error.
func postSweep(ctx context.Context, c *http.Client, base string, specs []harness.Spec) ([]coldResult, error) {
	out := make([]coldResult, len(specs))
	for i, s := range specs {
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out[i].body = body
	}
	body, err := json.Marshal(specs)
	if err != nil {
		return nil, err
	}
	resp, err := post(ctx, c, base+"/v1/sweep", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	got, done := 0, false
	for sc.Scan() {
		var ev sweepLine
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		switch ev.Event {
		case "result":
			if ev.Index < 0 || ev.Index >= len(out) || ev.Result == nil {
				return nil, fmt.Errorf("malformed result line %s", sc.Bytes())
			}
			if ev.Result.Error != "" {
				return nil, fmt.Errorf("spec %d: %s", ev.Index, ev.Result.Error)
			}
			out[ev.Index].key, out[ev.Index].res = ev.Key, *ev.Result
			got++
		case "done":
			done = ev.OK
		case "error":
			return nil, errors.New(ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done || got != len(out) {
		return nil, fmt.Errorf("stream ended without done (%d of %d results)", got, len(out))
	}
	return out, nil
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// warmGen is the open-loop client. Targets grow as sweeps complete;
// everything else belongs to the generator goroutine until it exits.
type warmGen struct {
	mu      sync.Mutex
	targets []coldResult // guarded by mu
	started bool         // guarded by mu

	rng    *rand.Rand
	warmMS []float64
	lateMS []float64
	ops    int
	failed []error
}

// add publishes a sweep's results and reports whether the generator
// should start now.
func (g *warmGen) add(res []coldResult) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.targets = append(g.targets, res...)
	first := !g.started
	g.started = true
	return first
}

func (g *warmGen) pick() coldResult {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.targets[g.rng.Intn(len(g.targets))]
}

// run sends a warm request every warmGap until stop is closed. With
// one connection a slow response delays the next send; that wait is
// part of the next request's latency (timed from its due time), while
// the generator's own lateness counts only the time past both the due
// time and the previous response.
func (g *warmGen) run(ctx context.Context, c *http.Client, base string, stop <-chan struct{}) {
	start := time.Now()
	prevDone := start
	// Created stopped, so no stale tick waits in its channel when the
	// first Reset arms it.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * warmGap)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		g.lateMS = append(g.lateMS, float64(sent.Sub(ready))/1e6)
		target := g.pick()
		err := warmRun(ctx, c, base, target)
		prevDone = time.Now()
		g.ops++
		if err != nil {
			g.failed = append(g.failed, fmt.Errorf("warm run %s: %w", target.key, err))
			continue
		}
		g.warmMS = append(g.warmMS, float64(prevDone.Sub(due))/1e6)
	}
}

// warmRun posts one already completed spec and checks the daemon
// answers with the checksum its sweep returned.
func warmRun(ctx context.Context, c *http.Client, base string, target coldResult) error {
	resp, err := post(ctx, c, base+"/v1/run", target.body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var got struct {
		Key    string     `json:"key"`
		Result wireResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return err
	}
	if got.Key != target.key || got.Result.Checksum != target.res.Checksum {
		return fmt.Errorf("got key %s checksum %s, sweep returned %s", got.Key, got.Result.Checksum, target.res.Checksum)
	}
	return nil
}

// scrapeMetrics reads the daemon's /metrics exposition into a map
// keyed by series (name plus labels).
func scrapeMetrics(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
