package harness

import (
	"testing"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

const testEPC = 96

func mustRun(t *testing.T, spec Spec) *Result {
	t.Helper()
	if spec.EPCPages == 0 {
		spec.EPCPages = testEPC
	}
	res, err := runOne(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := runOne(Spec{}, nil); err == nil {
		t.Error("nil workload accepted")
	}
	lighttpd, _ := suite.ByName("Lighttpd")
	if _, err := runOne(Spec{Workload: lighttpd, Mode: sgx.Native}, nil); err == nil {
		t.Error("Native run of a LibOS-only workload accepted")
	}
	btree, _ := suite.ByName("BTree")
	if _, err := runOne(Spec{Workload: btree, Mode: sgx.Native, EPCPages: -5}, nil); err == nil {
		t.Error("negative EPC size accepted")
	}
	sc := scenarioSpec(t, "consensus", 3, 9)
	sc.EPCPages = -5
	if _, err := runOne(sc, nil); err == nil {
		t.Error("scenario with a negative EPC size accepted")
	}
	// The CLIs' -epc flags reach the engine through Runner.Run.
	if res := new(Runner).Run(Spec{Workload: btree, Mode: sgx.Native, EPCPages: -5}); res.Err == nil {
		t.Error("Runner.Run returned a result for a negative EPC size")
	}
}

func TestVanillaRunHasNoStartup(t *testing.T) {
	w, _ := suite.ByName("BTree")
	res := mustRun(t, Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low})
	if res.StartupCycles != 0 {
		t.Errorf("Vanilla startup = %d cycles", res.StartupCycles)
	}
	if res.Cycles == 0 {
		t.Error("no run time measured")
	}
}

func TestNativeLaunchInsideMeasuredWindow(t *testing.T) {
	// Native-mode enclave builds are part of the measured run (only
	// LibOS startup is excluded, Appendix D).
	w, _ := suite.ByName("BTree")
	res := mustRun(t, Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low})
	if res.StartupCycles != 0 {
		t.Errorf("Native startup = %d cycles, want 0 (launch is measured)", res.StartupCycles)
	}
	if res.Counters.Get(perf.EPCAllocs) == 0 {
		t.Error("measured window saw no EPC allocations")
	}
}

func TestLibOSStartupExcluded(t *testing.T) {
	w, _ := suite.ByName("BTree")
	res := mustRun(t, Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Low})
	if res.StartupCycles == 0 {
		t.Error("LibOS startup not recorded")
	}
	// The startup eviction storm must be in startup counters, not in
	// the measured delta.
	enclavePages := uint64(sgx.LibOSEnclaveFactor * testEPC)
	if got := res.StartupCounters.Get(perf.EPCEvictions); got < enclavePages/2 {
		t.Errorf("startup evictions = %d, want the launch storm", got)
	}
	if got := res.Counters.Get(perf.EPCEvictions); got >= enclavePages/2 {
		t.Errorf("measured delta contains the startup storm (%d evictions)", got)
	}
	// TotalCounters covers both.
	if res.TotalCounters.Get(perf.EPCEvictions) < res.StartupCounters.Get(perf.EPCEvictions) {
		t.Error("TotalCounters smaller than startup counters")
	}
}

func TestOverheadOrdering(t *testing.T) {
	w, _ := suite.ByName("HashJoin")
	van := mustRun(t, Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.High})
	nat := mustRun(t, Spec{Workload: w, Mode: sgx.Native, Size: workloads.High})
	if ovh := Overhead(nat, van); ovh <= 1.5 {
		t.Errorf("Native High overhead = %.2fx, want clearly above Vanilla", ovh)
	}
	if van.Output.Checksum != nat.Output.Checksum {
		t.Error("modes computed different results")
	}
}

func TestEPCBoundaryJump(t *testing.T) {
	// The paper's core observation: counters jump abruptly when the
	// footprint crosses the EPC size.
	w, _ := suite.ByName("BTree")
	low := mustRun(t, Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low})
	med := mustRun(t, Spec{Workload: w, Mode: sgx.Native, Size: workloads.Medium})
	lowF := low.Counters.Get(perf.PageFaults)
	medF := med.Counters.Get(perf.PageFaults)
	if medF < 3*lowF {
		t.Errorf("page faults Low->Medium: %d -> %d, want an abrupt jump", lowF, medF)
	}
	if med.Counters.Get(perf.EPCLoadBacks) == 0 {
		t.Error("Medium run had no load-backs")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(testEPC)
	r.Seed = 1
	w, _ := suite.ByName("BTree")
	a := r.Run(Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low})
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	b := r.Run(Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Low})
	if b.Err != nil {
		t.Fatal(b.Err)
	}
	if a != b {
		t.Error("identical specs were re-run instead of cached")
	}
	c := r.Run(Spec{Workload: w, Mode: sgx.Vanilla, Size: workloads.Medium})
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if a == c {
		t.Error("different sizes shared a cache entry")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	w, _ := suite.ByName("HashJoin")
	spec := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 9}
	a, err := runOne(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Counters != b.Counters || a.Output.Checksum != b.Output.Checksum {
		t.Error("identical specs produced different results")
	}
}

func TestTimelineRecorded(t *testing.T) {
	w, _ := suite.ByName("BTree")
	res := mustRun(t, Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Medium, Timeline: 32})
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Evictions == 0 || last.Allocs == 0 {
		t.Error("timeline missing activity")
	}
}

func TestSwitchlessReducesLatency(t *testing.T) {
	w, _ := suite.ByName("Lighttpd")
	def := mustRun(t, Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Low})
	sw := mustRun(t, Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Low, Switchless: true})
	if sw.Output.MeanLatency >= def.Output.MeanLatency {
		t.Errorf("switchless latency %v not below default %v", sw.Output.MeanLatency, def.Output.MeanLatency)
	}
	if sw.Counters.Get(perf.DTLBMisses) >= def.Counters.Get(perf.DTLBMisses) {
		t.Error("switchless mode did not reduce dTLB misses")
	}
}

// TestCacheKeysOnCanonicalEncodingNotPointer is the regression test
// for the pointer-identity audit: two specs carrying DISTINCT but
// structurally equal *Params (and *Config) pointers must resolve to
// the same canonical key and share one cache entry. Nothing in the
// cache path may ever compare the pointers themselves.
func TestCacheKeysOnCanonicalEncodingNotPointer(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	mkSpec := func() Spec {
		return Spec{
			Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC,
			Params:  &workloads.Params{Size: workloads.Low, Knobs: map[string]int64{"elements": 2000, "finds": 200}},
			Machine: &sgx.Config{TLBEntries: 64, TLBWays: 4},
		}
	}
	a, b := mkSpec(), mkSpec()
	if a.Params == b.Params || a.Machine == b.Machine {
		t.Fatal("test needs distinct pointers")
	}
	ka, err := SpecKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := SpecKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equal specs with distinct pointers keyed differently: %s vs %s", ka, kb)
	}

	r := NewRunner(testEPC)
	resA := r.Run(a)
	if resA.Err != nil {
		t.Fatal(resA.Err)
	}
	resB := r.Run(b)
	if resB.Err != nil {
		t.Fatal(resB.Err)
	}
	if resA != resB {
		t.Fatal("second spec re-ran instead of hitting the first's cache entry")
	}
	if n := r.Cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}
