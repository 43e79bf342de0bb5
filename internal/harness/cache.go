package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sgxgauge/internal/sgx"
)

// ResultCache stores completed Results keyed by canonical spec
// identity (Key). Implementations must be safe for concurrent use.
// The default runner cache is an unbounded in-process map; the
// sgxgauged daemon swaps in a sharded, size-bounded implementation
// (internal/serve).
type ResultCache interface {
	// Get returns the cached result for key, if present.
	Get(Key) (*Result, bool)
	// Add stores res under key unless the key is already present and
	// returns the entry the cache now holds — the earlier one on a
	// duplicate insert, so callers comparing identities always see
	// one canonical pointer per key.
	Add(Key, *Result) *Result
	// Len reports the number of cached results.
	Len() int
}

// mapCache is the default unbounded ResultCache.
type mapCache struct {
	mu sync.Mutex
	m  map[Key]*Result // guarded by mu
}

func newMapCache() *mapCache { return &mapCache{m: make(map[Key]*Result)} }

func (c *mapCache) Get(k Key) (*Result, bool) {
	c.mu.Lock()
	res, ok := c.m[k]
	c.mu.Unlock()
	return res, ok
}

func (c *mapCache) Add(k Key, res *Result) *Result {
	c.mu.Lock()
	if prev, ok := c.m[k]; ok {
		res = prev
	} else {
		c.m[k] = res
	}
	c.mu.Unlock()
	return res
}

func (c *mapCache) Len() int {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return n
}

// Runner caches Results so experiments can share runs between tables
// and figures (every figure of the paper draws from the same
// experiment grid), and is the module's single batch-execution
// surface: Run, Experiment.Render and ChaosSweep all go through
// RunAll, which feeds the options-based parallel engine.
// A Runner is safe for concurrent use: concurrent batches share its
// cache, its worker slots and its in-flight executions, so a spec
// missing the cache in two batches at once executes once.
//
// Error convention: a spec's failure reaches callers only through its
// Result.Err. Every batch runs to completion and returns one non-nil
// Result per spec; a batch cannot be cancelled, so there is no
// batch-level failure.
type Runner struct {
	// EPCPages is the simulated EPC size used for all runs
	// (0 = machine default).
	EPCPages int
	// Seed is the base seed.
	Seed int64
	// Jobs bounds the specs simulating locally at once, across every
	// concurrent batch of this Runner (0 = GOMAXPROCS), and is each
	// batch's goroutine count. Remote Exec dispatch holds no slot. Set
	// it before first use.
	Jobs int
	// Progress, when non-nil, receives one event per spec completed
	// by a RunAll batch; the OnProgress option overrides it per call.
	Progress func(Progress)
	// Cache stores completed results, keyed by the SHA-256 of each
	// normalized spec's canonical JSON encoding. NewRunner installs
	// the default unbounded map; replace it before first use to bound
	// or share the cache. Failed runs and specs carrying Hooks are
	// never cached.
	Cache ResultCache
	// Exec, when non-nil, replaces local machine execution for
	// hook-free specs: the engine calls it instead of booting a
	// simulated machine, and everything around execution — cache
	// probes, coalescing, progress events, result
	// caching — still happens in this Runner. The sgxgauged
	// coordinator uses it to farm execution out to a worker fleet.
	// Specs carrying Hooks always execute in-process (a callback
	// cannot travel), as do the engine's retry and chaos-reseed
	// policies, which belong to whoever actually runs the machine.
	// Exec must be safe for concurrent use; it receives normalized
	// specs and returns a non-nil Result that carries every failure,
	// the spec's own or the transport's, in Err.
	Exec func(Spec) *Result

	initOnce sync.Once
	// slots holds one token per local simulation, Jobs wide.
	slots chan struct{}
	// boots shares LibOS boots across every batch, with at most Jobs
	// templates live (see DESIGN.md §"Boot templates").
	boots     *bootPlan
	bootStats bootStats

	mu sync.Mutex
	// flights holds the one in-flight execution per key, across
	// batches. guarded by mu
	flights map[Key]*flight

	executed  atomic.Uint64
	coalesced atomic.Uint64
	busy      atomic.Int64
}

// NewRunner returns a Runner for the given EPC size.
func NewRunner(epcPages int) *Runner {
	return &Runner{EPCPages: epcPages, Cache: newMapCache()}
}

// init installs the default cache and sizes the worker slots on first
// use, so a zero Runner still works, and returns the cache.
func (r *Runner) init() ResultCache {
	r.initOnce.Do(func() {
		if r.Cache == nil {
			r.Cache = newMapCache()
		}
		n := r.Jobs
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.slots = make(chan struct{}, n)
		r.boots = newBootPlan(n, &r.bootStats)
	})
	return r.Cache
}

// epcPages returns the EPC size the runner's specs run at.
func (r *Runner) epcPages() int {
	return sgx.Config{EPCPages: r.EPCPages}.WithDefaults().EPCPages
}

// acquire takes a worker slot, waiting for one to free up.
func (r *Runner) acquire() {
	r.slots <- struct{}{}
	r.busy.Add(1)
}

// release returns a slot taken by acquire.
func (r *Runner) release() {
	r.busy.Add(-1)
	<-r.slots
}

// RunLocal executes spec in-process under the runner's worker bound,
// with no cache probe, no coalescing, no retry and no Exec: the local
// fallback for an Exec that cannot dispatch a spec. The Result is
// never nil and carries the spec's own failure in Err.
func (r *Runner) RunLocal(spec Spec) *Result {
	r.init()
	r.acquire()
	defer r.release()
	res := runWithRetry(r.normalize(spec), 0, &bootSlot{plan: r.boots})
	return &res
}

// flight is one in-flight execution of a key. The batch that
// registered it executes the spec; every other miss of the key waits
// on done. res, the leader's Result (failed or not), is written before
// done closes.
type flight struct {
	done chan struct{}
	res  *Result
}

// join returns the in-flight execution of key, registering one led by
// the caller when none exists.
func (r *Runner) join(key Key) (f *flight, lead bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.flights[key]; ok {
		r.coalesced.Add(1)
		return f, false
	}
	if r.flights == nil {
		r.flights = make(map[Key]*flight)
	}
	f = &flight{done: make(chan struct{})}
	r.flights[key] = f
	return f, true
}

// settle publishes a leader's outcome, retires the key and wakes the
// waiters.
func (r *Runner) settle(key Key, f *flight, res *Result) {
	f.res = res
	r.mu.Lock()
	delete(r.flights, key)
	r.mu.Unlock()
	close(f.done)
}

// RunStats is a snapshot of a Runner's execution counters.
type RunStats struct {
	// Executed counts specs RunAll executed, locally or through Exec;
	// cache hits and coalesced misses are excluded.
	Executed uint64
	// Coalesced counts misses that waited on an identical in-flight
	// execution instead of running again.
	Coalesced uint64
	// Busy is the number of worker slots simulating right now.
	Busy int64
	// InFlight is the number of distinct keys executing or queued.
	InFlight int
	// TemplateBuilds, ClonedBoots and InPlaceBoots count how local
	// LibOS specs booted: building a shared template, on a clone of
	// one, or on a machine of their own (see DESIGN.md §"Boot
	// templates"). A spec that builds a template also runs on a clone
	// of it, so it counts in both of the first two.
	TemplateBuilds uint64
	ClonedBoots    uint64
	InPlaceBoots   uint64
}

// Stats returns the runner's execution counters.
func (r *Runner) Stats() RunStats {
	r.mu.Lock()
	inflight := len(r.flights)
	r.mu.Unlock()
	return RunStats{
		Executed:       r.executed.Load(),
		Coalesced:      r.coalesced.Load(),
		Busy:           r.busy.Load(),
		InFlight:       inflight,
		TemplateBuilds: r.bootStats.builds.Load(),
		ClonedBoots:    r.bootStats.clones.Load(),
		InPlaceBoots:   r.bootStats.inPlace.Load(),
	}
}

// Normalize returns the spec as the runner actually files and runs
// it: the runner's EPC size and seed forced onto fields the spec
// leaves zero. Remote executors call it so the spec they ship is the
// one the key was computed from.
func (r *Runner) Normalize(spec Spec) Spec { return r.normalize(spec) }

// normalize forces the runner's EPC size and seed onto a spec that
// leaves them zero.
func (r *Runner) normalize(spec Spec) Spec {
	if spec.EPCPages == 0 {
		spec.EPCPages = r.EPCPages
	}
	if spec.Seed == 0 {
		spec.Seed = r.Seed
	}
	return spec
}

// Key returns the canonical cache key the runner files spec under:
// the SHA-256 of the normalized spec's canonical JSON encoding. It
// fails when the spec cannot be canonically encoded (no workload).
func (r *Runner) Key(spec Spec) (Key, error) {
	return SpecKey(r.normalize(spec))
}

// engineOpts merges the runner's defaults with per-call options.
func (r *Runner) engineOpts(opts []Option) engineOpts {
	o := engineOpts{progress: r.Progress}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// RunAll is the module's one batch entry point: it executes the specs
// through the parallel engine, sharing the runner's cache. Cached
// cells are not re-run, and a miss whose key is already executing —
// in this batch or a concurrent one — waits for that execution instead
// of running again; fresh successful results are cached for later
// calls. Results keep input order and are never nil; a spec's failure
// is recorded in its Result.Err without aborting siblings. The error
// return is always nil: no batch-level failure exists, and the result
// is kept only for callers that still read it (ROADMAP item 8 drops
// it).
//
// Two spec classes bypass the cache: specs carrying Hooks (a function
// value has no canonical encoding to key on) and specs that cannot be
// canonically encoded at all (no workload). Both still execute;
// their results are simply never stored or shared.
func (r *Runner) RunAll(specs []Spec, opts ...Option) ([]*Result, error) {
	return r.runAll(specs, opts...), nil
}

// runAll is RunAll without its always-nil error.
func (r *Runner) runAll(specs []Spec, opts ...Option) []*Result {
	o := r.engineOpts(opts)
	cache := r.init()

	out := make([]*Result, len(specs))
	norm := make([]Spec, len(specs))
	keys := make([]Key, len(specs))
	cacheable := make([]bool, len(specs))
	flights := make([]*flight, len(specs))
	var lead, follow []int // misses, by input position
	// completed counts the specs finished so far, executed or not;
	// progress events report it against the whole input.
	completed := 0
	// served settles input i without executing it: a cache hit, or a
	// miss that followed another execution. Its event, if the batch
	// asked for one, is emitted from this goroutine before or after
	// the engine batch, never during it, so the serialized-callback
	// contract holds without extra locking.
	served := func(i int, res *Result) {
		out[i] = res
		completed++
		if o.progressCached && o.progress != nil {
			o.progress(Progress{
				Completed: completed,
				Total:     len(specs),
				Index:     i,
				Name:      res.Name,
				Mode:      specs[i].Mode,
				Err:       res.Err,
				Cached:    true,
			})
		}
	}
	for i, spec := range specs {
		norm[i] = r.normalize(spec)
		key, kerr := SpecKey(norm[i])
		keys[i], cacheable[i] = key, kerr == nil && spec.Hooks.empty()
		if cacheable[i] {
			if res, ok := cache.Get(key); ok {
				served(i, res)
				continue
			}
			// Lead a miss no execution holds yet; follow the rest.
			f, leads := r.join(key)
			if flights[i] = f; !leads {
				follow = append(follow, i)
				continue
			}
		}
		lead = append(lead, i)
	}
	if completed == len(specs) {
		return out
	}

	batch := make([]Spec, len(lead))
	for j, i := range lead {
		batch[j] = norm[i]
	}
	// The engine reports executed specs by sub-batch position.
	var mu sync.Mutex
	r.runBatch(batch, o, func(j int, res *Result, ev Progress) {
		i := lead[j]
		r.executed.Add(1)
		// Failures are not cached, so a retry re-runs them.
		if res.Err == nil && cacheable[i] {
			res = cache.Add(keys[i], res)
		}
		out[i] = res
		if f := flights[i]; f != nil {
			r.settle(keys[i], f, res)
		}
		if o.progress != nil {
			mu.Lock()
			completed++
			ev.Completed, ev.Total, ev.Index = completed, len(specs), i
			o.progress(ev)
			mu.Unlock()
		}
	})
	// Collect followed executions only now that this batch's own have
	// settled, so no cycle of waits can form. A leader always settles,
	// failed or not.
	for _, i := range follow {
		<-flights[i].done
		served(i, flights[i].res)
	}
	return out
}

// Run executes (or serves from cache) one spec: a one-spec RunAll. The
// returned Result is never nil and carries the spec's failure in Err.
func (r *Runner) Run(spec Spec) *Result {
	return r.runAll([]Spec{spec})[0]
}
