package harness

import (
	"reflect"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Whole-workload differential runs: the same spec executed through the
// machine's optimized access path and through Config.SlowPath must
// produce bit-identical simulated results — cycles, every counter,
// startup split and functional output. This is the end-to-end
// counterpart of the sgx package's lockstep test: it covers the real
// workloads' access mixes (ECALL batches, Memset/Memcpy bulk paths,
// parallel phases, LibOS startup storms) rather than a synthetic
// script.

func runDifferential(t *testing.T, spec Spec) {
	t.Helper()
	fastSpec, slowSpec := spec, spec
	slowMachine := sgx.Config{}
	if spec.Machine != nil {
		slowMachine = *spec.Machine
	}
	slowMachine.SlowPath = true
	slowSpec.Machine = &slowMachine

	fast, _, errF := runOne(fastSpec, nil)
	slow, _, errS := runOne(slowSpec, nil)
	if (errF == nil) != (errS == nil) || (errF != nil && errF.Error() != errS.Error()) {
		t.Fatalf("errors diverged: fast %v, slow %v", errF, errS)
	}
	if errF != nil {
		// Both failed identically (a chaos spec may abort); the
		// partial results must still agree.
		if fast == nil || slow == nil {
			return
		}
	}
	if fast.Cycles != slow.Cycles {
		t.Errorf("Cycles: fast %d, slow %d (drift %d)",
			fast.Cycles, slow.Cycles, int64(fast.Cycles)-int64(slow.Cycles))
	}
	if fast.StartupCycles != slow.StartupCycles {
		t.Errorf("StartupCycles: fast %d, slow %d", fast.StartupCycles, slow.StartupCycles)
	}
	if fast.Counters != slow.Counters {
		t.Errorf("measured counters diverged:\nfast %v\nslow %v", fast.Counters, slow.Counters)
	}
	if fast.TotalCounters != slow.TotalCounters {
		t.Errorf("total counters diverged:\nfast %v\nslow %v", fast.TotalCounters, slow.TotalCounters)
	}
	if fast.StartupCounters != slow.StartupCounters {
		t.Errorf("startup counters diverged:\nfast %v\nslow %v",
			fast.StartupCounters, slow.StartupCounters)
	}
	if fast.Output.Checksum != slow.Output.Checksum {
		t.Errorf("Checksum: fast %#x, slow %#x", fast.Output.Checksum, slow.Output.Checksum)
	}
	if fast.Output.Ops != slow.Output.Ops {
		t.Errorf("Ops: fast %d, slow %d", fast.Output.Ops, slow.Output.Ops)
	}
	if fast.Output.MeanLatency != slow.Output.MeanLatency {
		t.Errorf("MeanLatency: fast %v, slow %v", fast.Output.MeanLatency, slow.Output.MeanLatency)
	}
	if !reflect.DeepEqual(fast.Output.Extra, slow.Output.Extra) {
		t.Errorf("Extra: fast %v, slow %v", fast.Output.Extra, slow.Output.Extra)
	}
}

func TestWorkloadFastSlowEquivalence(t *testing.T) {
	btree, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"btree-vanilla": {Workload: btree, Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: testEPC},
		"btree-native":  {Workload: btree, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC},
		"btree-libos":   {Workload: btree, Mode: sgx.LibOS, Size: workloads.Low, EPCPages: testEPC},
		"btree-native-chaos": {
			Workload: btree, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC,
			Seed: 3,
			Chaos: &chaos.Config{
				Seed: 17, Rate: 0.01,
				AEXStorm: true, EPCBalloon: true,
			},
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) { runDifferential(t, spec) })
	}
}

// TestExtentWorkloadFastSlowEquivalence runs every workload that
// emits compiled access-stream extents (ExtentPlan) through the same
// whole-run differential: the bulk-charged extent path versus
// SlowPath's per-access replay must be bit-identical in cycles,
// counters and functional output — also under mid-run chaos, where
// the machine must fall back to per-access replay with the same
// results.
func TestExtentWorkloadFastSlowEquivalence(t *testing.T) {
	for _, name := range []string{"BFS", "PageRank", "HashJoin", "XSBench"} {
		w, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name+"-native", func(t *testing.T) {
			runDifferential(t, Spec{
				Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC,
			})
		})
		t.Run(name+"-native-chaos", func(t *testing.T) {
			runDifferential(t, Spec{
				Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC,
				Seed: 5,
				Chaos: &chaos.Config{
					Seed: 23, Rate: 0.01,
					AEXStorm: true, EPCBalloon: true,
				},
			})
		})
	}
}
