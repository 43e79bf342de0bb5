package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Progress reports one completed spec to a RunAll progress callback.
// Callbacks are serialized (never invoked concurrently), so they may
// write to a terminal without their own locking.
type Progress struct {
	// Completed is the number of specs finished so far, including
	// this one; Total is the batch size.
	Completed int
	Total     int
	// Index is this spec's position in the input slice.
	Index int
	// Name and Mode identify the spec.
	Name string
	Mode sgx.Mode
	// Wall is the host wall-clock time this spec took. It is
	// reporting-only and never part of a Result, so results stay
	// bit-for-bit deterministic.
	Wall time.Duration
	// Err is non-nil when the spec failed or panicked.
	Err error
	// Cached marks a spec served from the runner's result cache
	// without executing. Such events are emitted only when the batch
	// opts in via ProgressCached.
	Cached bool
	// Cloned marks a LibOS spec that ran on a clone of a boot it
	// shared with other specs of the batch instead of booting its own
	// machine (see DESIGN.md §"Boot templates"). Like Wall it is
	// reporting-only: the Result is identical either way.
	Cloned bool
}

type engineOpts struct {
	workers        int
	progress       func(Progress)
	progressCached bool
	retries        int
	backoff        time.Duration
	clock          Clock
	ctx            context.Context
	exec           func(Spec) (*Result, error)
	// runner, when non-nil, bounds local execution by its worker
	// slots; execBatch leaves it nil (bounded by workers alone).
	runner *Runner
}

// Option configures a Runner.RunAll batch (and the Run/Get wrappers
// over it).
type Option func(*engineOpts)

// Workers sets the batch's goroutine count; n <= 0 selects GOMAXPROCS.
// Local simulation stays bounded by the Runner's Jobs across batches.
func Workers(n int) Option {
	return func(o *engineOpts) { o.workers = n }
}

// OnProgress registers fn to be called after each spec completes.
func OnProgress(fn func(Progress)) Option {
	return func(o *engineOpts) { o.progress = fn }
}

// ProgressCached makes RunAll emit a progress event (Cached: true)
// for every spec it serves straight from the result cache, before the
// engine batch starts. The default — cache hits are silent — is kept
// for interactive progress bars, where "N specs ran" should mean N
// simulations; journaling consumers opt in so a warm resume still
// records every task as it lands.
func ProgressCached() Option {
	return func(o *engineOpts) { o.progressCached = true }
}

// Retry re-runs a spec up to n extra times when it fails with a
// transient machine fault (an injected ECALL/OCALL transition
// failure). Each retry derives a fresh chaos seed via
// chaos.Config.WithAttempt, so the retried run faces new — but still
// deterministic — adversity rather than deterministically replaying
// the fault that killed it. Non-transient failures are never retried.
func Retry(n int) Option {
	return func(o *engineOpts) {
		if n > 0 {
			o.retries = n
		}
	}
}

// RetryBackoff sets the base delay slept before each retry; the delay
// doubles with every subsequent attempt (exponential backoff). The
// sleep is host wall-clock only — it never touches simulated time, so
// results remain bit-for-bit deterministic regardless of backoff.
func RetryBackoff(d time.Duration) Option {
	return func(o *engineOpts) {
		if d > 0 {
			o.backoff = d
		}
	}
}

// WithClock sets the wall clock used to stamp Progress.Wall (default
// RealClock). Tests inject a fake so progress events are reproducible.
func WithClock(c Clock) Option {
	return func(o *engineOpts) {
		if c != nil {
			o.clock = c
		}
	}
}

// WithContext binds the batch to ctx: once ctx is cancelled, no new
// spec starts (unstarted specs complete immediately with ctx's error
// in their Result.Err, as do misses still waiting on another batch's
// execution of their key) and the batch returns ctx's error as its
// engine-level error. A spec already executing runs to completion —
// simulated machines are not interruptible — so cancellation bounds
// the remaining work at one in-flight run per worker.
func WithContext(ctx context.Context) Option {
	return func(o *engineOpts) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// runBatch is the parallel engine every harness entry point feeds:
// it executes every spec on the worker pool, each on its own simulated
// machine in its own goroutine; LibOS specs that boot the same
// configuration share one boot (see planBoots). Results are
// returned in input order regardless of completion order, and each
// spec's deterministic seeding is untouched, so a batch is
// bit-for-bit identical to running the same specs serially. A spec
// that errors or panics yields a Result with Err set instead of
// aborting its siblings; a cancelled context fails the specs it kept
// from starting. settle, when non-nil, sees each spec's Result as it
// lands, before its progress event, with ran false when the context
// ended before the spec started.
func runBatch(specs []Spec, o engineOpts, settle func(i int, res *Result, ran bool)) []Result {
	ctx := o.ctx
	results := make([]Result, len(specs))
	// Specs sent to a remote executor never claim their slot, so they
	// never build a template; finish releases their share of the plan.
	boots := planBoots(o.bootPlan(len(specs)), specs)
	var mu sync.Mutex
	completed := 0
	forEach(len(specs), o.workers, func(i int) {
		start := o.clock.Now()
		ran := true
		if err := ctx.Err(); err != nil {
			results[i], ran = failedResult(specs[i], err), false
		} else if o.exec != nil && specs[i].Hooks.empty() {
			// Remote execution holds no worker slot. The executor's
			// Result already carries the spec's own failure and attempt
			// count; a transport failure (nil result) becomes this
			// spec's error.
			res, err := o.exec(specs[i])
			if res != nil {
				results[i] = *res
				if results[i].Err == nil && err != nil {
					results[i].Err = err
				}
			} else {
				if err == nil {
					err = fmt.Errorf("harness: remote executor returned no result")
				}
				results[i] = failedResult(specs[i], err)
			}
			if results[i].Attempts == 0 {
				results[i].Attempts = 1
			}
		} else if o.runner.acquire(ctx) {
			results[i] = runWithRetry(ctx, specs[i], &o, boots[i])
			o.runner.release()
		} else {
			results[i], ran = failedResult(specs[i], ctx.Err()), false
		}
		boots[i].finish()
		if settle != nil {
			settle(i, &results[i], ran)
		}
		wall := o.clock.Since(start)
		if o.progress != nil {
			mu.Lock()
			completed++
			o.progress(Progress{
				Completed: completed,
				Total:     len(specs),
				Index:     i,
				Name:      results[i].Name,
				Mode:      specs[i].Mode,
				Wall:      wall,
				Err:       results[i].Err,
				Cloned:    boots[i].cloned,
			})
			mu.Unlock()
		}
	})
	return results
}

// bootPlan returns the plan a batch of n specs shares boots through:
// the Runner's, which keeps templates across batches, or, for
// execBatch, a plan of the batch's own that releases each template
// after its last user.
func (o *engineOpts) bootPlan(n int) *bootPlan {
	if o.runner != nil {
		return o.runner.boots
	}
	return newBootPlan(poolSize(n, o.workers), false, &bootStats{})
}

// execBatch runs specs through the engine with per-call options and
// no cache — the in-package form ChaosSweep and tests use.
func execBatch(specs []Spec, opts ...Option) ([]Result, error) {
	o := engineOpts{clock: RealClock{}, ctx: context.Background()}
	for _, opt := range opts {
		opt(&o)
	}
	return runBatch(specs, o, nil), o.ctx.Err()
}

// runWithRetry executes the spec, re-running it on transient injected
// faults per the engine's retry policy. It returns the last attempt's
// result (possibly a partial, fault-bearing one) with its error in Err
// and the number of attempts that ran. Backoff sleeps are bound to the
// batch context: a cancelled batch stops waiting immediately and
// surfaces the last attempt's transient error instead of sleeping out
// the rest of an exponential schedule nobody will read.
func runWithRetry(ctx context.Context, spec Spec, o *engineOpts, boot *bootSlot) Result {
	for attempt := 0; ; attempt++ {
		s := spec
		if attempt > 0 && s.Chaos != nil {
			derived := s.Chaos.WithAttempt(attempt)
			s.Chaos = &derived
		}
		res, err := runSafe(s, boot)
		retry := err != nil && attempt < o.retries && sgx.IsTransient(err)
		if !retry || (o.backoff > 0 && !sleepCtx(ctx, o.backoff<<uint(attempt))) {
			out := failedResult(spec, err)
			if res != nil {
				out = *res
				out.Err = err
			}
			out.Attempts = attempt + 1
			return out
		}
	}
}

// sleepCtx blocks for d or until ctx is cancelled, reporting whether
// the full delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runSafe is Run with panic containment: one bad config surfaces as
// an error instead of killing the whole sweep.
func runSafe(spec Spec, boot *bootSlot) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run panicked: %v", r)
		}
	}()
	return runOne(spec, boot)
}

// failedResult echoes what identification the spec offers alongside
// the error.
func failedResult(spec Spec, err error) Result {
	name := spec.WorkloadName()
	if name == "" {
		name = "<nil>"
	}
	return Result{Name: name, Mode: spec.Mode, Err: err}
}

// forEach runs fn(i) for every i in [0, n) on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS). It returns once all
// calls complete.
func forEach(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	workers = poolSize(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// poolSize returns how many goroutines forEach runs for n calls on up
// to workers goroutines (workers <= 0 selects GOMAXPROCS).
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// MatrixSpecs returns the paper's main experiment grid — every suite
// workload in every supported mode at every input setting — as one
// RunAll batch. Native-mode cells are skipped for the four workloads
// without a Native port.
func MatrixSpecs() []Spec {
	return GridSpecs(suite.All(), []sgx.Mode{sgx.Vanilla, sgx.Native, sgx.LibOS}, workloads.Sizes())
}

// GridSpecs returns one Spec per (workload, mode, size) cell, in
// workload-major order, skipping Native cells for workloads without a
// Native port.
func GridSpecs(ws []workloads.Workload, modes []sgx.Mode, sizes []workloads.Size) []Spec {
	specs := make([]Spec, 0, len(ws)*len(modes)*len(sizes))
	for _, w := range ws {
		for _, mode := range modes {
			if mode == sgx.Native && !w.NativePort() {
				continue
			}
			for _, size := range sizes {
				specs = append(specs, Spec{Workload: w, Mode: mode, Size: size})
			}
		}
	}
	return specs
}
