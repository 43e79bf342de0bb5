package sgx

import (
	"reflect"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/tlb"
)

// nativeEnv builds a Native-mode env with a small launched enclave.
func nativeEnv(t *testing.T, epcPages int) (*Machine, *Env) {
	t.Helper()
	m := NewMachine(Config{EPCPages: epcPages})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(2, epcPages*2); err != nil {
		t.Fatal(err)
	}
	return m, env
}

func TestECallCostsAndFlushes(t *testing.T) {
	m, env := nativeEnv(t, 64)
	tr := env.Main
	flushes := m.Counters.Get(perf.TLBFlushes)
	before := tr.Clock.Cycles()
	var inside bool
	tr.ECall(func() { inside = tr.InEnclave() })
	if !inside {
		t.Error("not in enclave during ECall body")
	}
	if tr.InEnclave() {
		t.Error("still in enclave after ECall")
	}
	c := m.Costs
	if got := tr.Clock.Cycles() - before; got != c.ECallEnter+c.ECallExit {
		t.Errorf("ECall cost = %d, want %d", got, c.ECallEnter+c.ECallExit)
	}
	if m.Counters.Get(perf.TLBFlushes) != flushes+2 {
		t.Error("ECall did not flush on both transitions")
	}
	if m.Counters.Get(perf.ECalls) != 1 {
		t.Errorf("ECalls = %d", m.Counters.Get(perf.ECalls))
	}
}

func TestECallIsDirectOutsideNativeMode(t *testing.T) {
	for _, mode := range []Mode{Vanilla, LibOS} {
		m := NewMachine(Config{EPCPages: 64})
		env := m.NewEnv(mode)
		if mode == LibOS {
			if _, err := env.LaunchEnclave(2, 64); err != nil {
				t.Fatal(err)
			}
			env.EnterPermanently()
		}
		tr := env.Main
		before := tr.Clock.Cycles()
		tr.ECall(func() {})
		if m.Counters.Get(perf.ECalls) != 0 {
			t.Errorf("%v: app-level ECall performed a transition", mode)
		}
		if tr.Clock.Cycles() != before {
			t.Errorf("%v: app-level ECall charged cycles", mode)
		}
	}
}

func TestOCallFromEnclave(t *testing.T) {
	m, env := nativeEnv(t, 64)
	tr := env.Main
	var outside bool
	tr.ECall(func() {
		tr.OCall(func() { outside = !tr.InEnclave() })
		if !tr.InEnclave() {
			t.Error("enclave depth lost after OCall return")
		}
	})
	if !outside {
		t.Error("OCall body ran inside the enclave")
	}
	if m.Counters.Get(perf.OCalls) != 1 {
		t.Errorf("OCalls = %d", m.Counters.Get(perf.OCalls))
	}
}

func TestOCallOutsideEnclaveIsDirect(t *testing.T) {
	m, env := nativeEnv(t, 64)
	env.Main.OCall(func() {})
	if m.Counters.Get(perf.OCalls) != 0 {
		t.Error("OCall outside enclave performed a transition")
	}
}

func TestSwitchlessOCallSkipsFlush(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64, Switchless: true})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	tr.ECall(func() {
		flushes := m.Counters.Get(perf.TLBFlushes)
		tr.OCall(func() {})
		if m.Counters.Get(perf.TLBFlushes) != flushes {
			t.Error("switchless OCall flushed the TLB")
		}
	})
	if m.Counters.Get(perf.OCalls) != 0 {
		t.Error("switchless OCall counted as a regular OCall")
	}
	if m.Counters.Get(perf.SwitchlessCalls) != 1 {
		t.Errorf("SwitchlessCalls = %d", m.Counters.Get(perf.SwitchlessCalls))
	}
}

func TestSwitchlessIsCheaper(t *testing.T) {
	cost := func(switchless bool) uint64 {
		m := NewMachine(Config{EPCPages: 64, Switchless: switchless})
		env := m.NewEnv(Native)
		if _, err := env.LaunchEnclave(2, 64); err != nil {
			t.Fatal(err)
		}
		tr := env.Main
		var delta uint64
		tr.ECall(func() {
			before := tr.Clock.Cycles()
			tr.OCall(func() {})
			delta = tr.Clock.Cycles() - before
		})
		return delta
	}
	if s, d := cost(true), cost(false); s*4 > d {
		t.Errorf("switchless OCall (%d cycles) not clearly cheaper than default (%d)", s, d)
	}
}

func TestSyscallRoutingPerMode(t *testing.T) {
	// Vanilla: no transitions. Native: one OCALL. LibOS: shim + OCALL.
	counts := func(mode Mode) (ocalls, syscalls uint64) {
		m := NewMachine(Config{EPCPages: 64})
		env := m.NewEnv(mode)
		tr := env.Main
		if mode != Vanilla {
			if _, err := env.LaunchEnclave(2, 64); err != nil {
				t.Fatal(err)
			}
		}
		if mode == LibOS {
			env.EnterPermanently()
		}
		run := func() { tr.Syscall(64) }
		if mode == Native {
			tr.ECall(run)
		} else {
			run()
		}
		return m.Counters.Get(perf.OCalls), m.Counters.Get(perf.Syscalls)
	}
	if o, s := counts(Vanilla); o != 0 || s != 1 {
		t.Errorf("Vanilla: ocalls=%d syscalls=%d", o, s)
	}
	if o, s := counts(Native); o != 1 || s != 1 {
		t.Errorf("Native: ocalls=%d syscalls=%d", o, s)
	}
	if o, s := counts(LibOS); o != 1 || s != 1 {
		t.Errorf("LibOS: ocalls=%d syscalls=%d", o, s)
	}
}

func TestSyscallInternalAvoidsExitInLibOS(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(LibOS)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	env.EnterPermanently()
	env.Main.SyscallInternal(64)
	if m.Counters.Get(perf.OCalls) != 0 {
		t.Error("internally-handled syscall exited the enclave")
	}
	if m.Counters.Get(perf.Syscalls) != 1 {
		t.Error("internal syscall not counted")
	}
}

func TestEPCFaultRaisesAEXOnlyInsideEnclave(t *testing.T) {
	m, env := nativeEnv(t, 32)
	tr := env.Main
	heap := env.MustAlloc(8*mem.PageSize, mem.PageSize)

	// Touch from outside the enclave (loader-style): no AEX.
	tr.Write(heap, []byte{1})
	if m.Counters.Get(perf.AEXs) != 0 {
		t.Error("fault outside enclave raised AEX")
	}
	// Touch a fresh page from inside: AEX.
	tr.ECall(func() { tr.Write(heap+mem.PageSize, []byte{1}) })
	if m.Counters.Get(perf.AEXs) != 1 {
		t.Errorf("AEXs = %d, want 1", m.Counters.Get(perf.AEXs))
	}
}

func TestEvictionShootsDownTLB(t *testing.T) {
	m, env := nativeEnv(t, 32)
	tr := env.Main
	// Working set bigger than the EPC: pages the TLB knows about get
	// evicted, and re-access must fault (not serve stale frames).
	heap := env.MustAlloc(48*mem.PageSize, mem.PageSize)
	for p := uint64(0); p < 48; p++ {
		tr.WriteU64(heap+p*mem.PageSize, p)
	}
	// Page 0 was certainly evicted; its TLB entry must be gone, and
	// the access must load the right data back.
	faults := m.Counters.Get(perf.PageFaults)
	if got := tr.ReadU64(heap); got != 0 {
		t.Fatalf("page 0 = %d after shootdown, want 0", got)
	}
	if m.Counters.Get(perf.PageFaults) == faults {
		t.Error("re-access of evicted page did not fault (stale TLB entry)")
	}
}

func TestContentionScalesOCallCost(t *testing.T) {
	m, env := nativeEnv(t, 64)
	tr := env.Main
	measure := func() uint64 {
		var delta uint64
		tr.ECall(func() {
			before := tr.Clock.Cycles()
			tr.OCall(func() {})
			delta = tr.Clock.Cycles() - before
		})
		return delta
	}
	solo := measure()
	env.SetConcurrency(16)
	contended := measure()
	env.SetConcurrency(1)
	if contended <= solo {
		t.Errorf("16-way contended OCall (%d) not costlier than solo (%d)", contended, solo)
	}
	want := 1 + m.Costs.ContentionFactor*15
	got := float64(contended) / float64(solo)
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("contention multiplier = %.2f, want ~%.2f", got, want)
	}
}

func TestRunParallelClockSemantics(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	base := env.Main.Clock.Cycles()
	env.RunParallel(4, func(tr *Thread, i int) {
		tr.Compute(uint64(1000 * (i + 1)))
	})
	// Elapsed advances by the max thread duration, not the sum.
	if got := env.Main.Clock.Cycles() - base; got != 4000 {
		t.Errorf("parallel elapsed = %d, want 4000 (max thread)", got)
	}
}

func TestRunParallelSingleThreadUsesMain(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	var seen *Thread
	env.RunParallel(1, func(tr *Thread, i int) { seen = tr })
	if seen != env.Main {
		t.Error("RunParallel(1) spawned a new thread")
	}
}

func TestRunParallelThreadsSeeEnclaveState(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(LibOS)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	env.EnterPermanently()
	env.RunParallel(3, func(tr *Thread, i int) {
		if !tr.InEnclave() {
			t.Errorf("thread %d not inside enclave under LibOS", i)
		}
	})
	_ = m
}

func TestEnterPermanently(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(LibOS)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	if env.Main.InEnclave() {
		t.Error("in enclave before EnterPermanently")
	}
	env.EnterPermanently()
	if !env.Main.InEnclave() {
		t.Error("not in enclave after EnterPermanently")
	}
}

func TestModeString(t *testing.T) {
	if Vanilla.String() != "Vanilla" || Native.String() != "Native" || LibOS.String() != "LibOS" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestAllocModeRouting(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	van := m.NewEnv(Vanilla)
	a, err := van.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a >= enclaveRegion {
		t.Error("Vanilla Alloc returned an enclave address")
	}
	nat := m.NewEnv(Native)
	if _, err := nat.Alloc(100, 0); err == nil {
		t.Error("Native Alloc before LaunchEnclave succeeded")
	}
	if _, err := nat.LaunchEnclave(2, 32); err != nil {
		t.Fatal(err)
	}
	b, err := nat.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b < enclaveRegion {
		t.Error("Native Alloc returned an untrusted address")
	}
	if u := nat.AllocUntrusted(100, 0); u >= enclaveRegion {
		t.Error("AllocUntrusted returned an enclave address")
	}
}

func TestRuntimeTransitions(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(LibOS)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	tr.RuntimeECall(func() {
		if !tr.InEnclave() {
			t.Error("RuntimeECall did not enter")
		}
		tr.RuntimeOCall(func() {
			if tr.InEnclave() {
				t.Error("RuntimeOCall did not exit")
			}
		})
	})
	tr.RuntimeAEX()
	c := m.Counters
	if c.Get(perf.ECalls) != 1 || c.Get(perf.OCalls) != 1 || c.Get(perf.AEXs) != 1 {
		t.Errorf("transition counters = %d/%d/%d", c.Get(perf.ECalls), c.Get(perf.OCalls), c.Get(perf.AEXs))
	}

	// Each primitive's cost and flushes, alone: an ECALL pays entry
	// and exit, an OCALL its exit and return (unscaled at concurrency
	// 1), an AEX its one cost; every crossing flushes the TLB once.
	measure := func(name string, fn func(), cycles, flushes uint64) {
		t.Helper()
		c0, f0 := tr.Clock.Cycles(), c.Get(perf.TLBFlushes)
		fn()
		if cyc, fl := tr.Clock.Cycles()-c0, c.Get(perf.TLBFlushes)-f0; cyc != cycles || fl != flushes {
			t.Errorf("%s: %d cycles, %d flushes; want %d, %d", name, cyc, fl, cycles, flushes)
		}
	}
	costs := m.Costs
	measure("RuntimeECall", func() { tr.RuntimeECall(func() {}) }, costs.ECallEnter+costs.ECallExit, 2)
	tr.RuntimeECall(func() {
		measure("RuntimeOCall", func() { tr.RuntimeOCall(func() {}) }, costs.OCallExit+costs.OCallReturn, 2)
	})
	measure("RuntimeAEX", tr.RuntimeAEX, costs.AEX, 1)

	t.Run("no chaos draw, no trace event", runtimeSkipsChaosAndTrace)
}

// runtimeSkipsChaosAndTrace checks that the Runtime* primitives draw no
// chaos fault and emit no trace event, even on a traced machine whose
// every transition fails, while ECall and OCall run their chaos draw
// and trace event before the same primitive.
func runtimeSkipsChaosAndTrace(t *testing.T) {
	var events []TraceEvent
	m := NewMachine(Config{EPCPages: 64, Chaos: &chaos.Config{Seed: 1, TransitionFault: true, TransitionRate: 1}})
	m.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	events = nil
	if err := Protect(func() {
		tr.RuntimeECall(func() { tr.RuntimeOCall(func() {}) })
		tr.RuntimeAEX()
	}); err != nil {
		t.Fatalf("Runtime* raised %v", err)
	}
	if len(events) != 0 || m.Counters.Get(perf.TransitionFaults) != 0 {
		t.Fatalf("Runtime* emitted %v and drew %d transition faults; want none", events, m.Counters.Get(perf.TransitionFaults))
	}
	if err := Protect(func() { tr.ECall(func() {}) }); !IsTransient(err) {
		t.Errorf("ECall at transition rate 1: err = %v, want transient", err)
	}
	if err := Protect(func() { tr.RuntimeECall(func() { tr.OCall(func() {}) }) }); !IsTransient(err) {
		t.Errorf("OCall at transition rate 1: err = %v, want transient", err)
	}
	if n := m.Counters.Get(perf.TransitionFaults); n != 2 {
		t.Errorf("TransitionFaults = %d, want 2", n)
	}

	// Without the injector, ECall and OCall each emit their event at the
	// clock before their first charge.
	m = NewMachine(Config{EPCPages: 64})
	m.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	env = m.NewEnv(Native)
	if _, err := env.LaunchEnclave(2, 64); err != nil {
		t.Fatal(err)
	}
	tr = env.Main
	events = nil
	atECall := tr.Clock.Cycles()
	var atOCall uint64
	tr.ECall(func() {
		atOCall = tr.Clock.Cycles()
		tr.OCall(func() {})
	})
	want := []TraceEvent{{Kind: TraceECall, Cycle: atECall}, {Kind: TraceOCall, Cycle: atOCall}}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Errorf("events = %+v, want %+v", events, want)
	}
}

// Counts made on RunParallel's worker threads land in the machine's
// bank and stay there once the workers retire: every thread counts
// straight into the one bank, so retiring a thread has nothing to
// fold back.
func TestRunParallelCountsOutliveThreads(t *testing.T) {
	m, env := nativeEnv(t, 64)
	buf := env.MustAlloc(4*mem.PageSize, mem.PageSize)
	before := m.Counters.Snapshot()
	var inWorkers perf.Snapshot
	env.RunParallel(4, func(tr *Thread, i int) {
		start := m.Counters.Snapshot()
		tr.ECall(func() {
			tr.WriteU64(buf+uint64(i)*mem.PageSize, uint64(i))
			tr.Syscall(8)
		})
		inWorkers = inWorkers.Add(m.Counters.Snapshot().Sub(start))
	})
	if n := len(m.threads); n != 1 {
		t.Fatalf("%d threads live after RunParallel, want 1", n)
	}
	got := m.Counters.Snapshot().Sub(before)
	if got != inWorkers {
		t.Errorf("bank after retirement gained %v, workers counted %v", got, inWorkers)
	}
	if got.Get(perf.ECalls) != 4 || got.Get(perf.Syscalls) != 4 || got.Get(perf.OCalls) != 4 {
		t.Errorf("ECalls/Syscalls/OCalls = %d/%d/%d, want 4/4/4",
			got.Get(perf.ECalls), got.Get(perf.Syscalls), got.Get(perf.OCalls))
	}
	if got.Get(perf.Accesses) == 0 {
		t.Error("worker accesses not counted")
	}
}

// TestRunParallelReusesOneFreshThread: RunParallel's workers are one
// reused thread, and each starts in exactly the state newThread builds:
// a fresh TLB, an empty memo, a clock at the caller's time and the next
// ID. Workers here dirty their TLB, memo and clock with ECALLs and page
// touches, so a missed reset shows in the next one. Once warm, a
// repeat 16-thread phase allocates nothing.
func TestRunParallelReusesOneFreshThread(t *testing.T) {
	m, env := nativeEnv(t, 64)
	buf := env.MustAlloc(16*mem.PageSize, mem.PageSize)
	fresh := tlb.New(m.cfg.TLBEntries, m.cfg.TLBWays)
	var workers []*Thread
	wantID := env.nextThread
	check := func(tr *Thread, i int) {
		base := env.Main.Clock.Cycles()
		want := Thread{ID: wantID, env: env, tlb: tr.tlb}
		want.Clock.Advance(base)
		wantID++
		if !reflect.DeepEqual(*tr, want) || !reflect.DeepEqual(*tr.tlb, *fresh) {
			t.Fatalf("worker %d (ID %d) does not start in a new thread's state", i, tr.ID)
		}
		workers = append(workers, tr)
		tr.ECall(func() {
			for p := range 16 {
				tr.WriteU64(buf+uint64(p)*mem.PageSize, uint64(i))
			}
		})
	}
	env.RunParallel(3, check)
	env.RunParallel(4, check)
	for _, w := range workers[1:] {
		if w != workers[0] {
			t.Fatal("RunParallel built a second worker thread")
		}
	}
	work := func(tr *Thread, i int) {
		tr.ECall(func() { tr.WriteU64(buf+uint64(i)*mem.PageSize, uint64(i)) })
	}
	phase := func() { env.RunParallel(16, work) }
	if n := testing.AllocsPerRun(10, phase); n != 0 {
		t.Errorf("a repeat RunParallel(16) allocates %v times, want 0", n)
	}
}
