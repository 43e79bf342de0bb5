package harness

import (
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
	// Cached marks a spec this batch did not execute: one served from
	// the runner's result cache, or a miss that waited on another
	// execution of its key (a duplicate in this batch, or one a
	// concurrent batch leads). Such events are emitted only when the
	// batch opts in via ProgressCached.
	Cached bool
	// Cloned marks a LibOS spec that ran on a clone of the Runner's
	// template for its boot configuration instead of booting its own
	// machine (see DESIGN.md §"Boot templates"). Like Wall it is
	// reporting-only: the Result is identical either way.
	Cloned bool
}

type engineOpts struct {
	progress       func(Progress)
	progressCached bool
	retries        int
}

// Option configures a Runner.RunAll batch.
type Option func(*engineOpts)

// OnProgress registers fn to be called after each spec completes.
func OnProgress(fn func(Progress)) Option {
	return func(o *engineOpts) { o.progress = fn }
}

// ProgressCached makes RunAll emit a progress event (Cached: true)
// for every spec it does not execute itself: cache hits before the
// engine batch starts, and specs that followed another execution of
// their key once that execution settles. With it, Completed reaches
// Total. The default — such specs are silent — is kept
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
// the fault that killed it. Retries run back to back: a reseeded
// simulation owes nothing to wall-clock time. Non-transient failures
// are never retried.
func Retry(n int) Option {
	return func(o *engineOpts) {
		if n > 0 {
			o.retries = n
		}
	}
}

// runBatch is the parallel engine under RunAll: it executes every
// spec on Jobs goroutines, each on its own simulated machine; LibOS
// specs run on clones of the Runner's boot templates (see bootCache).
// Each spec's deterministic seeding is untouched, so a batch is
// bit-for-bit identical to running the same specs serially. A spec
// that errors or panics yields a Result with Err set instead of
// aborting its siblings. done sees each spec's Result as it lands, by
// position in specs, and the spec's progress event with Wall, Name,
// Mode, Err and Cloned filled in; calls may be concurrent.
func (r *Runner) runBatch(specs []Spec, o engineOpts, done func(i int, res *Result, ev Progress)) {
	results := make([]Result, len(specs))
	forEach(len(specs), r.Jobs, func(i int) {
		// Both wall-clock reads for Progress.Wall are bound here, under
		// the package's one determinism pragma.
		//sgxlint:ignore determinism Progress.Wall is host-side reporting that never enters a Result
		start, since := time.Now(), time.Since
		cloned := false
		if r.Exec != nil && specs[i].Hooks.empty() {
			// Remote execution holds no worker slot. The executor's
			// Result already carries every failure and the attempt
			// count.
			results[i] = *r.Exec(specs[i])
			if results[i].Attempts == 0 {
				results[i].Attempts = 1
			}
		} else {
			r.acquire()
			results[i], cloned = runWithRetry(specs[i], o.retries, &r.boots)
			r.release()
		}
		done(i, &results[i], Progress{
			Name:   results[i].Name,
			Mode:   specs[i].Mode,
			Wall:   since(start),
			Err:    results[i].Err,
			Cloned: cloned,
		})
	})
}

// runWithRetry executes the spec, re-running it up to retries more
// times on transient injected faults. It returns the last attempt's
// result (possibly a partial, fault-bearing one) with its error in Err
// and the number of attempts that ran, and whether that attempt's boot
// was cloned from one of boots' templates.
func runWithRetry(spec Spec, retries int, boots *bootCache) (Result, bool) {
	for attempt := 0; ; attempt++ {
		s := spec
		if attempt > 0 && s.Chaos != nil {
			derived := s.Chaos.WithAttempt(attempt)
			s.Chaos = &derived
		}
		res, cloned, err := runSafe(s, boots)
		if err == nil || attempt >= retries || !sgx.IsTransient(err) {
			out := failedResult(spec, err)
			if res != nil {
				out = *res
				out.Err = err
			}
			out.Attempts = attempt + 1
			return out, cloned
		}
	}
}

// runSafe is runOne with panic containment: one bad config surfaces as
// an error instead of killing the whole sweep.
func runSafe(spec Spec, boots *bootCache) (res *Result, cloned bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run panicked: %v", r)
		}
	}()
	return runOne(spec, boots)
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
