package harness

import (
	"fmt"
	"strings"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

// ChaosPoint is one cell of a chaos sweep: the fault rate the machine
// ran under plus the measured outcome at that intensity.
type ChaosPoint struct {
	// Rate is the per-opportunity fault probability (0 = clean
	// baseline).
	Rate float64
	// Result is the measured run, possibly partial when the run died
	// to an enclave abort.
	Result Result
}

// FaultReport extracts the injector-related counters from a result —
// the per-result fault report the chaos table is built from. Counts
// come from the whole machine lifetime, so faults injected during
// enclave launch are included.
type FaultReport struct {
	InjectedAEXs     uint64
	EPCResizes       uint64
	TransitionFaults uint64
	IntegrityAborts  uint64
}

// Faults returns the result's fault report.
func (r *Result) Faults() FaultReport {
	return FaultReport{
		InjectedAEXs:     r.TotalCounters.Get(perf.InjectedAEXs),
		EPCResizes:       r.TotalCounters.Get(perf.EPCResizes),
		TransitionFaults: r.TotalCounters.Get(perf.TransitionFaults),
		IntegrityAborts:  r.TotalCounters.Get(perf.IntegrityAborts),
	}
}

// ChaosSweep runs the base spec through r once per rate with the chaos
// template armed at that intensity (rate 0 leaves the injector off —
// the clean baseline). The template's per-class enables and seed carry
// over to every point; everything is deterministic, so a repeated
// sweep with the same inputs is byte-identical. Per-point failures
// (degraded or aborted runs are the whole point of a chaos sweep) live
// in each point's Result.Err.
func (r *Runner) ChaosSweep(base Spec, template chaos.Config, rates []float64, opts ...Option) []ChaosPoint {
	specs := make([]Spec, len(rates))
	for i, r := range rates {
		s := base
		if r > 0 {
			cc := template
			cc.Rate = r
			s.Chaos = &cc
		} else {
			s.Chaos = nil
		}
		specs[i] = s
	}
	results := r.runAll(specs, opts...)
	points := make([]ChaosPoint, len(rates))
	for i := range rates {
		points[i] = ChaosPoint{Rate: rates[i], Result: *results[i]}
	}
	return points
}

// RenderChaosTable formats a sweep as the degradation table the chaos
// subcommand prints: one row per fault intensity with run time,
// slowdown against the sweep's rate-0 baseline, the fault report, and
// how the run ended. Output contains no wall-clock values, so a
// deterministic sweep renders to identical bytes.
func RenderChaosTable(points []ChaosPoint) string {
	var base uint64
	for _, p := range points {
		if p.Rate == 0 && p.Result.Err == nil {
			base = p.Result.Cycles
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %14s %9s %8s %8s %8s %7s %8s  %s\n",
		"rate", "cycles", "slowdown", "aex", "resizes", "transit", "aborts", "attempts", "status")
	for _, p := range points {
		r := &p.Result
		f := r.Faults()
		slow := "-"
		if base > 0 && r.Cycles > 0 {
			slow = fmt.Sprintf("%.2fx", float64(r.Cycles)/float64(base))
		}
		status := "ok"
		switch {
		case r.Err != nil && sgx.IsAbort(r.Err):
			status = "aborted"
		case r.Err != nil && sgx.IsTransient(r.Err):
			status = "transient"
		case r.Err != nil:
			status = "failed"
		}
		fmt.Fprintf(&b, "%-8.4g %14d %9s %8d %8d %8d %7d %8d  %s\n",
			p.Rate, r.Cycles, slow,
			f.InjectedAEXs, f.EPCResizes, f.TransitionFaults, f.IntegrityAborts,
			r.Attempts, status)
	}
	return b.String()
}
