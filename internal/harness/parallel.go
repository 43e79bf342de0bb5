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
	progress       func(Progress)
	progressCached bool
	retries        int
	backoff        time.Duration
	clock          Clock
	ctx            context.Context
}

// Option configures a Runner.RunAll batch (and the Run wrapper over
// it).
type Option func(*engineOpts)

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

// runBatch is the parallel engine under RunAll: it executes every
// spec on Jobs goroutines, each on its own simulated machine; LibOS
// specs that boot the same configuration share one boot (see
// planBoots). Each spec's deterministic seeding is untouched, so a
// batch is bit-for-bit identical to running the same specs serially.
// A spec that errors or panics yields a Result with Err set instead of
// aborting its siblings; a cancelled context fails the specs it kept
// from starting. done sees each spec's Result as it lands, by position
// in specs, with ran false when the context ended before the spec
// started, and the spec's progress event with Wall, Name, Mode, Err
// and Cloned filled in; calls may be concurrent.
func (r *Runner) runBatch(specs []Spec, o engineOpts, done func(i int, res *Result, ran bool, ev Progress)) {
	ctx := o.ctx
	results := make([]Result, len(specs))
	// Specs sent to a remote executor never claim their slot, so they
	// never build a template; finish releases their share of the plan.
	boots := planBoots(r.boots, specs)
	forEach(len(specs), r.Jobs, func(i int) {
		start := o.clock.Now()
		ran := true
		if err := ctx.Err(); err != nil {
			results[i], ran = failedResult(specs[i], err), false
		} else if r.Exec != nil && specs[i].Hooks.empty() {
			// Remote execution holds no worker slot. The executor's
			// Result already carries the spec's own failure and attempt
			// count; a transport failure (nil result) becomes this
			// spec's error.
			res, err := r.Exec(specs[i])
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
		} else if r.acquire(ctx) {
			results[i] = runWithRetry(ctx, specs[i], &o, boots[i])
			r.release()
		} else {
			results[i], ran = failedResult(specs[i], ctx.Err()), false
		}
		boots[i].finish()
		done(i, &results[i], ran, Progress{
			Name:   results[i].Name,
			Mode:   specs[i].Mode,
			Wall:   o.clock.Since(start),
			Err:    results[i].Err,
			Cloned: boots[i].cloned,
		})
	})
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
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
