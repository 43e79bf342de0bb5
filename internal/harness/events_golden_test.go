package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// The goldens below pin what the report golden and the fast/slow
// differentials cannot see: the traced event stream (the differentials
// compare counters and cycles, never sgx.TraceEvents) and a chaos sweep
// over every fault class (both access paths share the per-access chaos
// step, so the differentials cannot see a change to it either). Both
// are rewritten by -update, under the rule of TestGoldenReport, and
// checked by its checkGolden.

const (
	goldenEventsPath = "testdata/events_epc64.golden"
	goldenChaosPath  = "testdata/chaos_epc64.golden"
)

// TestGoldenTraceStream traces two whole runs at EPC 64 — BTree Native
// Low (ECALLs, faults with AEX, paging) and Empty LibOS Low (the
// startup eviction storm) — and pins each stream's per-kind counts and
// the SHA-256 of its (kind, cycle, thread, addr) sequence.
func TestGoldenTraceStream(t *testing.T) {
	var b bytes.Buffer
	for _, c := range []struct {
		workload string
		mode     sgx.Mode
	}{{"BTree", sgx.Native}, {"Empty", sgx.LibOS}} {
		w, err := suite.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		var counts [sgx.NumTraceKinds]int
		h := sha256.New()
		var rec [32]byte
		spec := Spec{Workload: w, Mode: c.mode, Size: workloads.Low, EPCPages: 64, Seed: 1,
			Hooks: Hooks{OnMachine: func(m *sgx.Machine) {
				m.SetTracer(func(ev sgx.TraceEvent) {
					counts[ev.Kind]++
					binary.LittleEndian.PutUint64(rec[0:], uint64(ev.Kind))
					binary.LittleEndian.PutUint64(rec[8:], ev.Cycle)
					binary.LittleEndian.PutUint64(rec[16:], uint64(int64(ev.Thread)))
					binary.LittleEndian.PutUint64(rec[24:], ev.Addr)
					h.Write(rec[:])
				})
			}}}
		if res := NewRunner(64).Run(spec); res.Err != nil {
			t.Fatalf("%s %v: %v", c.workload, c.mode, res.Err)
		}
		fmt.Fprintf(&b, "[%s %v Low]\n", c.workload, c.mode)
		for k := 0; k < sgx.NumTraceKinds; k++ {
			fmt.Fprintf(&b, "%-8s %d\n", sgx.TraceKind(k), counts[k])
		}
		fmt.Fprintf(&b, "sha256   %x\n", h.Sum(nil))
	}
	checkGolden(t, goldenEventsPath, b.Bytes())
}

// TestGoldenChaosSweep pins one sweep with every fault class armed
// (AEX storm, balloon, tamper, transition) on BTree Native Low at EPC
// 64: the rendered table, then each point's nonzero lifetime counters
// and its error. Transitions fail at a fixed 0.1 per ECALL/OCALL, so
// the three points end ok, transient and aborted.
func TestGoldenChaosSweep(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	base := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: 64, Seed: 1}
	points := (&Runner{Jobs: 2}).ChaosSweep(base, chaos.Config{Seed: 11, TransitionRate: 0.1}.EnableAll(), []float64{0, 0.0005, 0.05})
	var b bytes.Buffer
	b.WriteString(RenderChaosTable(points))
	for _, p := range points {
		fmt.Fprintf(&b, "[rate %g] cycles %d err %v\n", p.Rate, p.Result.Cycles, p.Result.Err)
		for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
			if v := p.Result.TotalCounters.Get(e); v != 0 {
				fmt.Fprintf(&b, "  %-22s %d\n", e, v)
			}
		}
	}
	checkGolden(t, goldenChaosPath, b.Bytes())
}
