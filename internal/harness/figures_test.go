package harness

import (
	"strings"
	"testing"

	"sgxgauge/internal/epc"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// runner is shared across figure tests so runs are cached between
// them, the way sgxgauge report shares them between experiments.
var testRunner = func() *Runner {
	r := NewRunner(testEPC)
	r.Seed = 1
	return r
}()

// experiment returns the registered experiment id.
func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q", id)
	return Experiment{}
}

// runExperiment runs experiment id's spec list on testRunner and
// returns the batch its build step reads.
func runExperiment(t *testing.T, id string) *expBatch {
	t.Helper()
	b, err := experiment(t, id).run(testRunner)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runGrid regenerates experiment id on testRunner and returns its
// grid.
func runGrid(t *testing.T, id string) Grid {
	t.Helper()
	g, err := experiment(t, id).grid(testRunner)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFigure2Shape(t *testing.T) {
	g := runGrid(t, "fig2")
	v := func(size workloads.Size, col string) float64 { return g.Value("fig2", "", size.String(), col) }
	// Crossing the EPC boundary must blow up evictions relative to
	// Low and increase the overhead monotonically.
	if r := v(workloads.High, "EPC evictions (vs Low)"); r < 10 {
		t.Errorf("High/Low eviction ratio = %.1f, want an explosion (paper: ~100x)", r)
	}
	if !(v(workloads.Low, "Overhead") < v(workloads.High, "Overhead")) {
		t.Errorf("overhead not increasing: %.2f -> %.2f", v(workloads.Low, "Overhead"), v(workloads.High, "Overhead"))
	}
	// dTLB misses must be strongly amplified past the boundary; the
	// Low->Medium->High progression is monotone at report scale but
	// the High point is TLB-geometry-sensitive at test scale.
	if v(workloads.Medium, "dTLB misses") <= v(workloads.Low, "dTLB misses") {
		t.Errorf("dTLB ratio not increasing at the boundary: %.2f -> %.2f", v(workloads.Low, "dTLB misses"), v(workloads.Medium, "dTLB misses"))
	}
	if r := v(workloads.High, "dTLB misses"); r < 5 {
		t.Errorf("High dTLB ratio = %.1f, want strong amplification", r)
	}
	if s := g.String(); !strings.Contains(s, "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	g := runGrid(t, "fig3")
	rows := g[0].Rows
	if len(rows) != 5 {
		t.Fatalf("%d points", len(rows))
	}
	v := func(row Row, col string) float64 { return g.Value("fig3", "", row.ID, col) }
	first, last := rows[0], rows[len(rows)-1]
	if th := v(last, "Threads"); th != 16 {
		t.Errorf("last point at %.0f threads", th)
	}
	// Figure 3: the SGX latency penalty grows with concurrency, up
	// to ~7x at 16 threads.
	if v(last, "Ratio") <= v(first, "Ratio") {
		t.Errorf("latency ratio flat: %v -> %v", v(first, "Ratio"), v(last, "Ratio"))
	}
	if r := v(last, "Ratio"); r < 3 || r > 12 {
		t.Errorf("16-thread ratio = %.1fx, paper reports ~7x", r)
	}
	if s := g.String(); !strings.Contains(s, "Threads") {
		t.Error("render malformed")
	}
}

func TestFigure4Shape(t *testing.T) {
	g := runGrid(t, "fig4")
	if n := len(g[0].Rows); n != 6 {
		t.Fatalf("%d rows, want 6 native workloads", n)
	}
	// The paper's point: the LibOS's impact depends on the workload —
	// it clearly helps some while leaving others at (or beyond)
	// parity. Require a spread, not a uniform shift.
	min, max := 10.0, 0.0
	for _, w := range suite.Native() {
		for _, s := range workloads.Sizes() {
			r := g.Value("fig4", "", w.Name(), s.String())
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
			// And LibOS stays within a sane band of Native overall.
			if r < 0.1 || r > 3 {
				t.Errorf("%s/%v: LibOS/Native = %.2f out of band", w.Name(), s, r)
			}
		}
	}
	if min > 0.95 {
		t.Errorf("LibOS never helps (min ratio %.2f); Figure 4's point is lost", min)
	}
	if max < 0.95 || max/min < 1.3 {
		t.Errorf("LibOS impact uniform (min %.2f, max %.2f); Figure 4 expects workload-dependent spread", min, max)
	}
}

func TestTable4Shape(t *testing.T) {
	g := runGrid(t, "tab4")
	nv := func(size workloads.Size) float64 {
		return g.Value("tab4", "Native Mode w.r.t Vanilla", size.String(), "Overhead")
	}
	// Overheads grow with input size and sit in the paper's band.
	if !(nv(workloads.Low) < nv(workloads.High)) {
		t.Errorf("Native overhead not increasing: %.2f -> %.2f", nv(workloads.Low), nv(workloads.High))
	}
	if o := nv(workloads.Low); o < 1.3 || o > 4 {
		t.Errorf("Native Low overhead = %.2fx, paper reports 2.0x", o)
	}
	if o := nv(workloads.High); o < 2 || o > 9 {
		t.Errorf("Native High overhead = %.2fx, paper reports 3.4x", o)
	}
	// LibOS stays within ~±20% of Native (paper: ~±10%).
	const ln = "LibOS Mode w.r.t Native"
	for _, s := range workloads.Sizes() {
		if o := g.Value("tab4", ln, s.String(), "Overhead"); o < 0.7 || o > 1.3 {
			t.Errorf("LibOS/Native %v = %.2fx, want ~1.0", s, o)
		}
	}
	// LibOS eviction counts are dominated by the startup storm.
	if ev := g.Value("tab4", ln, "Low", "EPC evictions"); ev < float64(testEPC)*10 {
		t.Errorf("LibOS evictions = %v, want startup-storm scale", ev)
	}
	if s := g.String(); !strings.Contains(s, "Native Mode w.r.t Vanilla") {
		t.Error("render malformed")
	}
}

func TestFigure5Shape(t *testing.T) {
	g := runGrid(t, "fig5")
	if n := len(g[0].Rows); n != 6 {
		t.Fatalf("%d rows", n)
	}
	for _, w := range suite.Native() {
		if o := g.Value("fig5", "5a", w.Name(), "Low"); o <= 1 {
			t.Errorf("%s: Low overhead %.2fx <= 1", w.Name(), o)
		}
	}
	// Per the paper, data-bound workloads jump sharply Low->Medium.
	low, med := g.Value("fig5", "5b", "BTree", "Low"), g.Value("fig5", "5b", "BTree", "Medium")
	if med < 10*max(low, 1) {
		t.Errorf("BTree evictions %.0f -> %.0f do not jump at the boundary", low, med)
	}
}

func TestFigure6aShape(t *testing.T) {
	g := runGrid(t, "fig6a")
	v := func(row string) uint64 { return uint64(g.Value("fig6a", "", row, "Value")) }
	// Figure 6a: ~300 ECALLs, ~1000 OCALLs, ~1000 AEXs, evictions of
	// enclave-size scale, and only a small number of load-backs.
	if n := v("ECALLs"); n < 295 || n > 320 {
		t.Errorf("ECALLs = %d, want ~300", n)
	}
	if n := v("OCALLs"); n < 990 || n > 1100 {
		t.Errorf("OCALLs = %d, want ~1000", n)
	}
	if n := v("AEX exits"); n < 990 || n > 1100 {
		t.Errorf("AEXs = %d, want ~1000", n)
	}
	enclavePages := uint64(44 * testEPC)
	evictions, loadBacks := v("EPC evictions"), v("EPC load-backs")
	if evictions < enclavePages*8/10 {
		t.Errorf("evictions = %d, want ~%d (full enclave load)", evictions, enclavePages)
	}
	if loadBacks >= evictions/10 {
		t.Errorf("load-backs = %d of %d evictions; paper: only a tiny fraction returns", loadBacks, evictions)
	}
	// The measured time of the empty body prints in no cell.
	if c := runExperiment(t, "fig6a").results[0].Cycles; c != 0 {
		t.Errorf("empty body consumed %d cycles", c)
	}
}

func TestFigure6bcShape(t *testing.T) {
	g := runGrid(t, "fig6bc")
	if n := len(g[0].Rows); n != 10 {
		t.Fatalf("%d rows, want 10", n)
	}
	for _, w := range suite.All() {
		if o := g.Value("fig6bc", "6b", w.Name(), "Low"); o <= 0.9 {
			t.Errorf("%s: LibOS Low overhead %.2f", w.Name(), o)
		}
	}
}

func TestFigure6dShape(t *testing.T) {
	g := runGrid(t, "fig6d")
	v := func(row, col string) float64 { return g.Value("fig6d", "", row, col) }
	const lat = "Mean latency (us)"
	// §5.6: switchless mode cuts dTLB misses (paper: -60%) and
	// improves latency (paper: -30%).
	if v("dTLB misses", "Switchless") >= v("dTLB misses", "Default") {
		t.Error("switchless did not reduce dTLB misses")
	}
	if v(lat, "Switchless") >= v(lat, "Default") {
		t.Error("switchless did not improve latency")
	}
	drop := 1 - v(lat, "Switchless")/v(lat, "Default")
	if drop < 0.1 || drop > 0.9 {
		t.Errorf("latency improvement = %.0f%%, paper reports ~30%%", drop*100)
	}
}

func TestFigure7Shape(t *testing.T) {
	g := runGrid(t, "fig7")
	v := func(op epc.Op, col string) float64 { return g.Value("fig7", "", op.String(), col) }
	const mean = "Mean latency (us)"
	// Latencies are "in the range of a few micro-seconds"
	// (Appendix A) and EWB ~= 1.16x ELDU.
	for _, op := range []epc.Op{epc.OpEWB, epc.OpELDU, epc.OpFault} {
		if us := v(op, mean); us < 0.5 || us > 20 {
			t.Errorf("%v latency = %.2f us, want a few us", op, us)
		}
	}
	ratio := v(epc.OpEWB, mean) / v(epc.OpELDU, mean)
	if ratio < 1.1 || ratio > 1.25 {
		t.Errorf("EWB/ELDU = %.3f, paper reports ~1.16", ratio)
	}
	// The paper averages 40K+ samples at full scale; at test scale
	// just require a statistically meaningful count.
	if n := v(epc.OpEWB, "Samples"); n < 100 {
		t.Errorf("only %.0f EWB samples", n)
	}
}

func TestFigure8Shape(t *testing.T) {
	g := runGrid(t, "fig8")
	if n := len(g[0].Rows); n != 6 {
		t.Fatalf("%d workloads", n)
	}
	// Blockchain's dTLB misses must tower over Vanilla (paper
	// Appendix B.1: ~2000x from ECALL-driven flushes).
	bc := g.Value("fig8", workloads.Low.String(), "Blockchain", figure8Events[0].String())
	if bc < 50 {
		t.Errorf("Blockchain dTLB ratio = %.0fx, want very large", bc)
	}
}

func TestTable2Rows(t *testing.T) {
	g := runGrid(t, "tab2")
	if n := len(g[0].Rows); n != 10 {
		t.Fatalf("%d rows", n)
	}
	if !strings.Contains(g.String(), "Blockchain") {
		t.Error("render missing workloads")
	}
}

func TestTable5Shape(t *testing.T) {
	g := runGrid(t, "tab5")
	if n := len(g[0].Rows); n != 10 {
		t.Fatalf("%d rows", n)
	}
	for _, w := range suite.All() {
		nonzero := false
		for _, col := range g[0].Header[2:] {
			if g.Value("tab5", "", w.Name(), col) != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Errorf("%s: all-zero regression", w.Name())
		}
	}
	if !strings.Contains(g.String(), "*") {
		t.Error("render does not mark top counters")
	}
}

func TestFigure9Shape(t *testing.T) {
	g := runGrid(t, "fig9")
	// A timeline's rows are its samples, "<mode>/<phase>/<index>", then
	// "<mode>/end".
	var native, libos int
	libAtStartup := 0.0
	for _, r := range g[0].Rows {
		switch {
		case strings.HasPrefix(r.ID, "Native/"):
			native++
		case strings.HasPrefix(r.ID, "LibOS/"):
			libos++
		}
		if strings.HasPrefix(r.ID, "LibOS/init/") {
			libAtStartup = g.Value("fig9", "", r.ID, "Evictions")
		}
	}
	if native == 0 || libos == 0 {
		t.Fatal("missing timelines")
	}
	// The LibOS timeline front-loads the eviction storm: by the end
	// of startup it has evicted far more than the Native run ever
	// does.
	natTotal := g.Value("fig9", "", "Native/end", "Evictions")
	if libAtStartup < 1.5*natTotal {
		t.Errorf("LibOS startup evictions (%.0f) do not dominate Native total (%.0f)", libAtStartup, natTotal)
	}
}

func TestFigure10Shape(t *testing.T) {
	g := runGrid(t, "fig10")
	if n := len(g[0].Rows); n != 3 {
		t.Fatalf("%d rows", n)
	}
	const lib, pf = "LibOS (S-G)", "LibOS+PF (S-P)"
	v := func(row, col string) float64 { return g.Value("fig10", "", row, col) }
	for _, phase := range figure10Phases {
		// The LibOS rows are percentage changes against Vanilla's
		// phase time, so Vanilla < S-G < S-P reads as 0 < S-G < S-P.
		if !(0 < v(lib, phase) && v(lib, phase) < v(pf, phase)) {
			t.Errorf("%s: ordering broken: %.1fms / %+.0f%% / %+.0f%%", phase,
				v("Vanilla", phase), v(lib, phase), v(pf, phase))
		}
	}
	// PF mode multiplies boundary crossings (Figure 10c/d).
	if v(pf, "OCALLs") <= v(lib, "OCALLs") {
		t.Error("PF mode did not increase OCALLs")
	}
	if v(pf, "ECALLs") <= v(lib, "ECALLs") {
		t.Error("PF mode did not increase ECALLs")
	}
}
