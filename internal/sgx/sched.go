package sgx

import (
	"fmt"
	"sync"
)

// This file implements the deterministic multi-enclave scheduler the
// scenario engine runs on: N enclave programs time-share one simulated
// machine under a seed-derived round-robin quantum merge. Programs
// execute strictly one at a time (control is handed over channels, so
// there is never true parallelism inside a machine), which makes an
// interleaved run bit-identical across GOMAXPROCS settings and -j
// levels — the same guarantee every single-enclave workload already
// has, extended to co-resident enclaves.

// Program is one enclave's body under Interleave. It runs on its
// environment's main thread and calls p.Yield() inside its loops to
// share the machine; Yield is a cheap no-op until the program's
// current quantum is spent, at which point control passes to the
// co-resident enclave whose simulated clock is furthest behind. A
// program that never yields runs its whole body as one slice.
type Program func(p *Proc)

// Proc is one scheduled enclave program's handle: its slot index, its
// environment on the shared machine, and the yield point.
type Proc struct {
	// Index is the program's position in the Interleave call.
	Index int
	// Env is the program's environment (its own enclave) on the
	// machine every co-scheduled program shares.
	Env *Env

	limit  uint64        // park once Env.Main's clock passes this
	resume chan struct{} // scheduler → program: run one quantum
	parked chan struct{} // program → scheduler: quantum spent or done
	done   bool
	killed bool
	fault  any // recovered panic (enclave abort), replayed by Interleave
}

// T returns the thread the program executes on.
func (p *Proc) T() *Thread { return p.Env.Main }

// procKilled unwinds a parked program whose scenario is being torn
// down after a co-resident enclave aborted.
type procKilled struct{}

// Yield is the preemption point: a no-op while the current quantum
// has cycles left, otherwise it parks the program and blocks until the
// scheduler hands the machine back.
func (p *Proc) Yield() {
	if p.Env.Main.Clock.Cycles() < p.limit {
		return
	}
	p.parked <- struct{}{}
	<-p.resume
	if p.killed {
		panic(procKilled{})
	}
}

// defaultQuantum is the slice length, in simulated cycles, when the
// caller passes quantum 0. Big enough that transition costs dominate
// scheduling noise, small enough that eviction storms from one enclave
// land inside another's execution window.
const defaultQuantum = 4096

// Interleave runs one program per environment, all on one machine,
// under a deterministic quantum scheduler seeded by seed. Each slice
// resumes the runnable program whose simulated clock is furthest
// behind (ties to the lowest index), for a quantum jittered around the
// base by a seed-derived xorshift stream — so co-residents' EPC and
// cache traffic interleave differently per seed but identically per
// rerun. It returns when every program has; if a program panics (an
// enclave abort under chaos), the remaining programs are unwound and
// the abort is re-raised in the caller, so the usual Protect wrapper
// sees exactly what a single-enclave run would.
func Interleave(seed, quantum uint64, envs []*Env, programs []Program) {
	if len(envs) != len(programs) {
		panic(fmt.Sprintf("sgx: Interleave with %d envs, %d programs", len(envs), len(programs)))
	}
	if len(programs) == 0 {
		return
	}
	if quantum == 0 {
		quantum = defaultQuantum
	}

	procs := make([]*Proc, len(programs))
	var wg sync.WaitGroup
	for i := range programs {
		p := &Proc{
			Index:  i,
			Env:    envs[i],
			resume: make(chan struct{}),
			parked: make(chan struct{}),
		}
		procs[i] = p
		prog := programs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-p.resume
			if p.killed {
				p.done = true
				p.parked <- struct{}{}
				return
			}
			defer func() {
				if r := recover(); r != nil {
					if _, torndown := r.(procKilled); !torndown {
						p.fault = r
					}
				}
				p.done = true
				p.parked <- struct{}{}
			}()
			prog(p)
		}()
	}

	// xorshift64 stream jittering each slice's quantum; seeded so a
	// zero seed still produces a non-degenerate sequence.
	rng := seed*0x9e3779b97f4a7c15 + 0x1079
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	var fault any
	alive := len(procs)
	for alive > 0 {
		// Quantum merge: resume the runnable program with the lowest
		// simulated clock, so co-residents advance through virtual
		// time together no matter how lopsided their per-slice work is.
		var pick *Proc
		for _, p := range procs {
			if p.done {
				continue
			}
			if pick == nil || p.Env.Main.Clock.Cycles() < pick.Env.Main.Clock.Cycles() {
				pick = p
			}
		}
		q := quantum/2 + next()%quantum
		pick.limit = pick.Env.Main.Clock.Cycles() + q
		pick.killed = fault != nil
		pick.resume <- struct{}{}
		<-pick.parked
		if pick.done {
			alive--
			if pick.fault != nil && fault == nil {
				fault = pick.fault
			}
		}
	}
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}
