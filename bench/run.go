package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// childTimeout bounds one child process; a rep that takes longer is
// killed and counted failed.
const childTimeout = 60 * time.Second

// rep is one child process as the parent saw it.
type rep struct {
	setupS float64
	wallS  float64
	cpuS   float64
	rssMB  float64
	child  childReport
	serve  *serveRep // serve-mixed only
	cal    []float64 // calibration kernel times taken just before it
	ops    int
	failed int
	errs   []string
	digest string
}

// runRep starts one child for cfg and drives it to completion. The
// returned rep carries the child's own failures; the error is for a
// child that could not be run at all.
func runRep(ctx context.Context, w *workload, cfg childConfig) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	r := &rep{}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	driveErr := r.drive(ctx, w, cfg, stdin, stdout, start)
	if driveErr != nil {
		cancel()
	} else if _, err := io.Copy(io.Discard, stdout); err != nil {
		driveErr = err
	}
	if err := cmd.Wait(); err != nil && driveErr == nil {
		driveErr = fmt.Errorf("child: %w", err)
	}
	if driveErr != nil {
		return nil, fmt.Errorf("%s rep: %w", w.name, driveErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpuS = seconds(ru.Utime) + seconds(ru.Stime)
	}
	r.rssMB = float64(r.child.PeakRSSKB) / 1024
	if r.serve != nil {
		r.wallS, r.ops, r.digest = r.serve.sweepsS, r.serve.ops, r.serve.digest
		r.failed = len(r.serve.failed)
		for _, err := range r.serve.failed {
			r.errs = append(r.errs, err.Error())
		}
	} else {
		r.wallS, r.ops, r.failed, r.digest = r.child.WorkS, r.child.Ops, r.child.Failed, r.child.Digest
		r.errs = r.child.Errors
	}
	return r, nil
}

// drive reads the child's ready line, applies the served workload's
// load, then closes stdin and reads the child's report.
func (r *rep) drive(ctx context.Context, w *workload, cfg childConfig, stdin io.WriteCloser, stdout io.Reader, start time.Time) error {
	defer stdin.Close()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	if !sc.Scan() {
		return fmt.Errorf("child exited before it was ready: %v", sc.Err())
	}
	var ready readyLine
	if err := json.Unmarshal(sc.Bytes(), &ready); err != nil || !ready.Ready {
		return fmt.Errorf("bad ready line %q", sc.Bytes())
	}
	if w.serve {
		if err := healthz(ctx, ready.Addr); err != nil {
			return err
		}
	}
	r.setupS = time.Since(start).Seconds()
	if w.serve && !cfg.SetupOnly {
		var err error
		if r.serve, err = driveServe(ctx, ready.Addr, cfg.Seed, cfg.Short); err != nil {
			return err
		}
	}
	if err := stdin.Close(); err != nil {
		return err
	}
	if !sc.Scan() {
		return fmt.Errorf("child exited without a report: %v", sc.Err())
	}
	return json.Unmarshal(sc.Bytes(), &r.child)
}

// healthz checks the daemon answers /healthz with 200: the end of
// serve-mixed set-up.
func healthz(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: %s", resp.Status)
	}
	return nil
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// plan is one invocation's schedule.
type plan struct {
	workloads []*workload
	seed      int64
	short     bool
	// rounds of untraced reps when seconds is 0; otherwise reps run
	// round-robin until seconds have passed.
	rounds  int
	seconds float64
	trace   bool
	// digests are the expected digests by workload; without one, reps
	// must agree with each other.
	digests map[string]string
	// log receives progress lines.
	log io.Writer
	// kernel is the calibration kernel, shared by every workload.
	kernel *kernel
}

// setupProbes is how many set-up-only children each workload starts;
// setup_s is their median. Reps' own set-ups are left out: they start
// right after a heavy child and run about 20% slower, so mixing the
// two would make the median jump between them.
const setupProbes = 10

// wresult is everything one invocation measured on one workload.
type wresult struct {
	w        *workload
	setups   []float64
	reps     []*rep // untraced
	traced   []*rep
	probes   map[string]float64
	lastWall float64 // the previous rep's wall time
	attempts int
	failed   int
	errs     []string
	digest   string
}

// execute runs the plan: set-up probes, untraced rounds interleaving
// the workloads round-robin (so a noisy stretch of the machine spreads
// over all of them), then, when tracing, the layer probes and traced
// rounds.
func execute(ctx context.Context, p plan) ([]*wresult, error) {
	results := make([]*wresult, len(p.workloads))
	for i, w := range p.workloads {
		results[i] = &wresult{w: w, digest: p.digests[w.name]}
	}
	p.kernel = newKernel()
	start := time.Now()
	budget := p.seconds
	if p.trace {
		budget /= 2
	}
	for _, wr := range results {
		for i := 0; i < setupProbes; i++ {
			if r := wr.run(ctx, p, childConfig{SetupOnly: true}); r != nil {
				wr.setups = append(wr.setups, r.setupS)
			}
		}
	}
	rounds(ctx, p, results, start, budget, p.rounds, false)
	if !p.trace {
		return results, nil
	}
	fmt.Fprintln(p.log, "running layer probes")
	probes, err := runProbes(p.short)
	if err != nil {
		return nil, err
	}
	for _, wr := range results {
		wr.probes = probes
	}
	rounds(ctx, p, results, start, p.seconds, 1, true)
	return results, nil
}

// rounds runs round-robin reps: a fixed count when the plan has no
// time budget, otherwise until the budget is spent (counting a round
// as fitting when it would end within half a round of the budget).
func rounds(ctx context.Context, p plan, results []*wresult, start time.Time, budget float64, fixed int, traced bool) {
	roundStart := time.Now()
	for n := 0; ; n++ {
		if n > 0 {
			perRound := time.Since(roundStart).Seconds() / float64(n)
			if p.seconds == 0 && n >= fixed || p.seconds > 0 && time.Since(start).Seconds()+perRound/2 >= budget {
				return
			}
		}
		for _, wr := range results {
			r := wr.run(ctx, p, childConfig{Trace: traced})
			if r == nil {
				continue
			}
			kind := "rep"
			if traced {
				wr.traced = append(wr.traced, r)
				kind = "traced rep"
			} else {
				wr.reps = append(wr.reps, r)
			}
			fmt.Fprintf(p.log, "%-12s %s %d: wall %.3fs cpu %.3fs ops %d failed %d\n",
				wr.w.name, kind, n+1, r.wallS, r.cpuS, r.ops, r.failed)
		}
	}
}

// run executes one child of this workload and books its ops, checking
// its digest. A child that could not be run counts as one failed op.
func (wr *wresult) run(ctx context.Context, p plan, cfg childConfig) *rep {
	cfg.Workload, cfg.Seed, cfg.Short = wr.w.name, p.seed, p.short
	var cal []float64
	if !cfg.SetupOnly {
		// About one calibration per second of rep, so the samples
		// cover the measured time evenly.
		for i := 0; i < min(1+int(wr.lastWall), 12); i++ {
			cal = append(cal, p.kernel.time())
		}
	}
	// Collect the parent's garbage now rather than while the child
	// starts up beside it.
	runtime.GC()
	r, err := runRep(ctx, wr.w, cfg)
	if err != nil {
		wr.attempts++
		wr.fail(1, err.Error())
		return nil
	}
	if cfg.SetupOnly {
		return r
	}
	r.cal = cal
	wr.lastWall = r.wallS
	wr.attempts += r.ops
	wr.fail(r.failed, r.errs...)
	if wr.digest == "" && r.failed == 0 {
		wr.digest = r.digest
	}
	if r.digest != wr.digest {
		wr.fail(r.ops-r.failed, fmt.Sprintf("digest %s, want %s", r.digest, wr.digest))
	}
	return r
}

func (wr *wresult) fail(n int, errs ...string) {
	wr.failed += n
	for _, e := range errs {
		if len(wr.errs) < 10 {
			wr.errs = append(wr.errs, e)
		}
	}
}

func (wr *wresult) correct() bool { return wr.failed == 0 && wr.attempts > 0 }

// calibration is the kernel times taken before the reps.
func calibration(reps []*rep) []float64 {
	var cal []float64
	for _, r := range reps {
		cal = append(cal, r.cal...)
	}
	return cal
}

// slowdown is how much slower than at the reference speed the
// simulator ran while the reps did, by the calibration kernel.
func slowdown(reps []*rep) float64 {
	cal := calibration(reps)
	if len(cal) == 0 {
		return 1
	}
	return math.Pow(median(cal)/calibrationRef, slowdownExponent)
}
