package harness

import (
	"strings"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

func chaosBaseSpec(t *testing.T) Spec {
	t.Helper()
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 7}
}

// TestChaosSweepDeterministic: the whole sweep — results, counters,
// and the rendered table — must be byte-identical across repeats and
// worker counts.
func TestChaosSweepDeterministic(t *testing.T) {
	base := chaosBaseSpec(t)
	template := chaos.Config{Seed: 11}.EnableAll()
	rates := []float64{0, 0.001, 0.01}

	pa := (&Runner{Jobs: 1}).ChaosSweep(base, template, rates)
	pb := (&Runner{Jobs: 3}).ChaosSweep(base, template, rates)
	a := RenderChaosTable(pa)
	b := RenderChaosTable(pb)
	if a != b {
		t.Fatalf("same-seed sweeps differ:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "ok") {
		t.Errorf("table has no clean baseline row:\n%s", a)
	}
}

// TestChaosSweepDegrades: injected faults must be visible in the
// fault report, and the rate-0 baseline must stay clean.
func TestChaosSweepDegrades(t *testing.T) {
	base := chaosBaseSpec(t)
	template := chaos.Config{Seed: 11}.EnableAll()
	points := (&Runner{Jobs: 2}).ChaosSweep(base, template, []float64{0, 0.01})

	clean := points[0].Result
	if clean.Err != nil {
		t.Fatalf("baseline failed: %v", clean.Err)
	}
	if f := clean.Faults(); f != (FaultReport{}) {
		t.Errorf("baseline reports injected faults: %+v", f)
	}

	chaotic := points[1].Result
	f := chaotic.Faults()
	if f.InjectedAEXs == 0 && f.EPCResizes == 0 && f.TransitionFaults == 0 && f.IntegrityAborts == 0 {
		t.Errorf("rate 0.01 injected nothing: %+v", f)
	}
	// Whatever happened, the partial measurements survive.
	if chaotic.Cycles == 0 {
		t.Error("chaotic run carries no cycle measurement")
	}
}

// TestRetryExhaustsOnPermanentTransient: at transition rate 1 every
// reseeded attempt fails, so the engine uses all attempts and reports
// the transient error.
func TestRetryExhaustsOnPermanentTransient(t *testing.T) {
	spec := chaosBaseSpec(t)
	spec.Chaos = &chaos.Config{Seed: 5, TransitionFault: true, TransitionRate: 1}
	res := runFresh(1, []Spec{spec}, Retry(2))[0]
	if res.Err == nil {
		t.Fatal("run succeeded at transition rate 1")
	}
	if !sgx.IsTransient(res.Err) {
		t.Fatalf("Err = %v, want transient", res.Err)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (1 + 2 retries)", res.Attempts)
	}
}

// TestNoRetryOnAbort: integrity aborts are not transient; the engine
// must not burn retries on them.
func TestNoRetryOnAbort(t *testing.T) {
	spec := chaosBaseSpec(t)
	spec.Chaos = &chaos.Config{Seed: 5, MemTamper: true, TamperRate: 1}
	res := runFresh(1, []Spec{spec}, Retry(3))[0]
	if res.Err == nil {
		t.Fatal("run survived full-rate tampering")
	}
	if !sgx.IsAbort(res.Err) {
		t.Fatalf("Err = %v, want abort", res.Err)
	}
	if res.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (aborts are not retryable)", res.Attempts)
	}
	// The partial result still carries the measurements up to the
	// abort.
	if res.Cycles == 0 || res.TotalCounters.Get(0) == 0 {
		t.Error("aborted run carries no partial measurements")
	}
}

// TestRetryReseedsEventuallySucceeds: with a moderate transition rate
// an attempt's failure is not destiny — some reseeded retry gets
// through, and the result is the successful run's.
func TestRetryReseedsEventuallySucceeds(t *testing.T) {
	w, err := suite.ByName("OpenSSL")
	if err != nil {
		t.Fatal(err)
	}
	// OpenSSL in Native mode does a handful of ECALLs, so at rate
	// 0.05 most attempts succeed; generous retries make the overall
	// success deterministic in practice across seeds.
	spec := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 7}
	spec.Chaos = &chaos.Config{Seed: 1, TransitionFault: true, TransitionRate: 0.05}
	res := runFresh(1, []Spec{spec}, Retry(10))[0]
	if res.Err != nil {
		t.Fatalf("no attempt succeeded: %v (attempts %d)", res.Err, res.Attempts)
	}
	if res.Attempts < 1 || res.Attempts > 11 {
		t.Errorf("Attempts = %d out of range", res.Attempts)
	}
}
