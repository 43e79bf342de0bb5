package harness

import (
	"strings"
	"testing"

	"sgxgauge/internal/epc"
	"sgxgauge/internal/workloads"
)

// runner is shared across figure tests so runs are cached between
// them, the way sgxreport shares them between experiments.
var testRunner = func() *Runner {
	r := NewRunner(testEPC)
	r.Seed = 1
	return r
}()

// runExperiment runs experiment id's spec list on testRunner and
// returns the batch its render step reads.
func runExperiment(t *testing.T, id string) *expBatch {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			b, err := e.run(testRunner)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

func TestFigure2Shape(t *testing.T) {
	d, err := figure2(runExperiment(t, "fig2"))
	if err != nil {
		t.Fatal(err)
	}
	// Crossing the EPC boundary must blow up evictions relative to
	// Low and increase the overhead monotonically.
	if d.EvictRatio[workloads.High] < 10 {
		t.Errorf("High/Low eviction ratio = %.1f, want an explosion (paper: ~100x)", d.EvictRatio[workloads.High])
	}
	if !(d.Overhead[workloads.Low] < d.Overhead[workloads.High]) {
		t.Errorf("overhead not increasing: %v", d.Overhead)
	}
	// dTLB misses must be strongly amplified past the boundary; the
	// Low->Medium->High progression is monotone at report scale but
	// the High point is TLB-geometry-sensitive at test scale.
	if d.DTLBRatio[workloads.Medium] <= d.DTLBRatio[workloads.Low] {
		t.Errorf("dTLB ratio not increasing at the boundary: %v", d.DTLBRatio)
	}
	if d.DTLBRatio[workloads.High] < 5 {
		t.Errorf("High dTLB ratio = %.1f, want strong amplification", d.DTLBRatio[workloads.High])
	}
	if s := d.Render(); !strings.Contains(s, "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	pts, err := figure3(runExperiment(t, "fig3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Threads != 16 {
		t.Errorf("last point at %d threads", last.Threads)
	}
	// Figure 3: the SGX latency penalty grows with concurrency, up
	// to ~7x at 16 threads.
	if last.Ratio <= first.Ratio {
		t.Errorf("latency ratio flat: %v -> %v", first.Ratio, last.Ratio)
	}
	if last.Ratio < 3 || last.Ratio > 12 {
		t.Errorf("16-thread ratio = %.1fx, paper reports ~7x", last.Ratio)
	}
	if s := pts.Render(); !strings.Contains(s, "Threads") {
		t.Error("render malformed")
	}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := figure4(runExperiment(t, "fig4"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 native workloads", len(rows))
	}
	// The paper's point: the LibOS's impact depends on the workload —
	// it clearly helps some while leaving others at (or beyond)
	// parity. Require a spread, not a uniform shift.
	min, max := 10.0, 0.0
	for _, row := range rows {
		for _, s := range workloads.Sizes() {
			if row.Ratio[s] < min {
				min = row.Ratio[s]
			}
			if row.Ratio[s] > max {
				max = row.Ratio[s]
			}
			// And LibOS stays within a sane band of Native overall.
			if row.Ratio[s] < 0.1 || row.Ratio[s] > 3 {
				t.Errorf("%s/%v: LibOS/Native = %.2f out of band", row.Name, s, row.Ratio[s])
			}
		}
	}
	if min > 0.95 {
		t.Errorf("LibOS never helps (min ratio %.2f); Figure 4's point is lost", min)
	}
	if max < 0.95 || max/min < 1.3 {
		t.Errorf("LibOS impact uniform (min %.2f, max %.2f); Figure 4 expects workload-dependent spread", min, max)
	}
	_ = rows.Render()
}

func TestTable4Shape(t *testing.T) {
	d, err := table4(runExperiment(t, "tab4"))
	if err != nil {
		t.Fatal(err)
	}
	nv := d.NativeVsVanilla
	// Overheads grow with input size and sit in the paper's band.
	if !(nv.Overhead[workloads.Low] < nv.Overhead[workloads.High]) {
		t.Errorf("Native overhead not increasing: %v", nv.Overhead)
	}
	if nv.Overhead[workloads.Low] < 1.3 || nv.Overhead[workloads.Low] > 4 {
		t.Errorf("Native Low overhead = %.2fx, paper reports 2.0x", nv.Overhead[workloads.Low])
	}
	if nv.Overhead[workloads.High] < 2 || nv.Overhead[workloads.High] > 9 {
		t.Errorf("Native High overhead = %.2fx, paper reports 3.4x", nv.Overhead[workloads.High])
	}
	// LibOS stays within ~±20% of Native (paper: ~±10%).
	ln := d.LibOSVsNative
	for _, s := range workloads.Sizes() {
		if ln.Overhead[s] < 0.7 || ln.Overhead[s] > 1.3 {
			t.Errorf("LibOS/Native %v = %.2fx, want ~1.0", s, ln.Overhead[s])
		}
	}
	// LibOS eviction counts are dominated by the startup storm.
	if ln.EPCEvictions[workloads.Low] < float64(testEPC)*10 {
		t.Errorf("LibOS evictions = %v, want startup-storm scale", ln.EPCEvictions[workloads.Low])
	}
	if s := d.Render(); !strings.Contains(s, "Native Mode w.r.t Vanilla") {
		t.Error("render malformed")
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := figure5(runExperiment(t, "fig5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.Overhead[workloads.Low] <= 1 {
			t.Errorf("%s: Low overhead %.2fx <= 1", row.Name, row.Overhead[workloads.Low])
		}
	}
	// Per the paper, data-bound workloads jump sharply Low->Medium.
	for _, row := range rows {
		if row.Name == "BTree" && row.Evictions[workloads.Medium] < 10*max64(row.Evictions[workloads.Low], 1) {
			t.Errorf("BTree evictions %v do not jump at the boundary", row.Evictions)
		}
	}
	_ = rows.Render()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestFigure6aShape(t *testing.T) {
	d, err := figure6a(runExperiment(t, "fig6a"))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6a: ~300 ECALLs, ~1000 OCALLs, ~1000 AEXs, evictions of
	// enclave-size scale, and only a small number of load-backs.
	if d.ECalls < 295 || d.ECalls > 320 {
		t.Errorf("ECALLs = %d, want ~300", d.ECalls)
	}
	if d.OCalls < 990 || d.OCalls > 1100 {
		t.Errorf("OCALLs = %d, want ~1000", d.OCalls)
	}
	if d.AEXs < 990 || d.AEXs > 1100 {
		t.Errorf("AEXs = %d, want ~1000", d.AEXs)
	}
	enclavePages := uint64(44 * testEPC)
	if d.EPCEvictions < enclavePages*8/10 {
		t.Errorf("evictions = %d, want ~%d (full enclave load)", d.EPCEvictions, enclavePages)
	}
	if d.EPCLoadBacks >= d.EPCEvictions/10 {
		t.Errorf("load-backs = %d of %d evictions; paper: only a tiny fraction returns", d.EPCLoadBacks, d.EPCEvictions)
	}
	if d.RunCycles != 0 {
		t.Errorf("empty body consumed %d cycles", d.RunCycles)
	}
	_ = d.Render()
}

func TestFigure6bcShape(t *testing.T) {
	rows, err := figure6bc(runExperiment(t, "fig6bc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for _, row := range rows {
		if row.Overhead[workloads.Low] <= 0.9 {
			t.Errorf("%s: LibOS Low overhead %.2f", row.Name, row.Overhead[workloads.Low])
		}
	}
	_ = rows.Render()
}

func TestFigure6dShape(t *testing.T) {
	d, err := figure6d(runExperiment(t, "fig6d"))
	if err != nil {
		t.Fatal(err)
	}
	// §5.6: switchless mode cuts dTLB misses (paper: -60%) and
	// improves latency (paper: -30%).
	if d.SwitchlessDTLB >= d.DefaultDTLB {
		t.Error("switchless did not reduce dTLB misses")
	}
	if d.SwitchlessLatency >= d.DefaultLatency {
		t.Error("switchless did not improve latency")
	}
	drop := 1 - d.SwitchlessLatency/d.DefaultLatency
	if drop < 0.1 || drop > 0.9 {
		t.Errorf("latency improvement = %.0f%%, paper reports ~30%%", drop*100)
	}
	_ = d.Render()
}

func TestFigure7Shape(t *testing.T) {
	rows, err := figure7(runExperiment(t, "fig7"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[epc.Op]Figure7Row{}
	for _, row := range rows {
		got[row.Op] = row
	}
	// Latencies are "in the range of a few micro-seconds"
	// (Appendix A) and EWB ~= 1.16x ELDU.
	for _, op := range []epc.Op{epc.OpEWB, epc.OpELDU, epc.OpFault} {
		if us := got[op].MeanUS; us < 0.5 || us > 20 {
			t.Errorf("%v latency = %.2f us, want a few us", op, us)
		}
	}
	ratio := got[epc.OpEWB].MeanUS / got[epc.OpELDU].MeanUS
	if ratio < 1.1 || ratio > 1.25 {
		t.Errorf("EWB/ELDU = %.3f, paper reports ~1.16", ratio)
	}
	// The paper averages 40K+ samples at full scale; at test scale
	// just require a statistically meaningful count.
	if got[epc.OpEWB].Samples < 100 {
		t.Errorf("only %d EWB samples", got[epc.OpEWB].Samples)
	}
	_ = rows.Render()
}

func TestFigure8Shape(t *testing.T) {
	d, err := figure8(runExperiment(t, "fig8"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != 6 {
		t.Fatalf("%d workloads", len(d.Workloads))
	}
	// Blockchain's dTLB misses must tower over Vanilla (paper
	// Appendix B.1: ~2000x from ECALL-driven flushes).
	bc := d.Ratio["Blockchain"][workloads.Low][figure8Events[0]]
	if bc < 50 {
		t.Errorf("Blockchain dTLB ratio = %.0fx, want very large", bc)
	}
	_ = d.Render()
}

func TestTable2Rows(t *testing.T) {
	rows, err := table2(runExperiment(t, "tab2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(rows.Render(), "Blockchain") {
		t.Error("render missing workloads")
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := table5(runExperiment(t, "tab5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		nonzero := false
		for _, c := range row.Coeff {
			if c != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Errorf("%s: all-zero regression", row.Name)
		}
	}
	if !strings.Contains(rows.Render(), "*") {
		t.Error("render does not mark top counters")
	}
}

func TestFigure9Shape(t *testing.T) {
	d, err := figure9(runExperiment(t, "fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Native) == 0 || len(d.LibOS) == 0 {
		t.Fatal("missing timelines")
	}
	// The LibOS timeline front-loads the eviction storm: by the end
	// of startup it has evicted far more than the Native run ever
	// does.
	libAtStartup := uint64(0)
	for _, ev := range d.LibOS {
		if ev.Cycle <= d.LibOSStartup {
			libAtStartup = ev.Evictions
		}
	}
	natTotal := d.Native[len(d.Native)-1].Evictions
	if float64(libAtStartup) < 1.5*float64(natTotal) {
		t.Errorf("LibOS startup evictions (%d) do not dominate Native total (%d)", libAtStartup, natTotal)
	}
	_ = d.Render()
}

func TestFigure10Shape(t *testing.T) {
	rows, err := figure10(runExperiment(t, "fig10"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	van, lib, pf := rows[0], rows[1], rows[2]
	for _, phase := range []string{"write", "rewrite", "read", "reread"} {
		if !(van.PhaseCycles[phase] < lib.PhaseCycles[phase] && lib.PhaseCycles[phase] < pf.PhaseCycles[phase]) {
			t.Errorf("%s: ordering broken: %v / %v / %v", phase,
				van.PhaseCycles[phase], lib.PhaseCycles[phase], pf.PhaseCycles[phase])
		}
	}
	// PF mode multiplies boundary crossings (Figure 10c/d).
	if pf.OCalls <= lib.OCalls {
		t.Error("PF mode did not increase OCALLs")
	}
	if pf.ECalls <= lib.ECalls {
		t.Error("PF mode did not increase ECALLs")
	}
	_ = rows.Render()
}
