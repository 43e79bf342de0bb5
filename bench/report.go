package main

import (
	"fmt"
	"io"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
)

// workloadOut is one workload's part of a run file.
type workloadOut struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	// Slowdown is the simulator's slowdown against the reference
	// speed, the median of the Calibration times over calibrationRef
	// to the power slowdownExponent; end-to-end times are divided by
	// it, rates multiplied.
	Slowdown    float64            `json:"slowdown"`
	Calibration []float64          `json:"calibration_s"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
}

// runFile is what -o writes and compare reads.
type runFile struct {
	Seed      int64         `json:"seed"`
	Short     bool          `json:"short,omitempty"`
	Workloads []workloadOut `json:"workloads"`
}

func (wr *wresult) out(trace bool) workloadOut {
	o := workloadOut{
		Name: wr.w.name, Correct: wr.correct(), Attempted: wr.attempts, Failed: wr.failed,
		Errors: wr.errs, Digest: wr.digest, Slowdown: slowdown(wr.reps), Calibration: calibration(wr.reps), EndToEnd: wr.endToEnd(),
	}
	if trace {
		o.PerLayer = wr.perLayer()
	}
	return o
}

// endToEnd summarizes the untraced reps, with times at the reference
// speed. Set-up time stays as measured: process start-up is kernel
// and page-fault work the calibration kernel does not track, and
// scaling it widened its spread between runs.
func (wr *wresult) endToEnd() map[string]summary {
	k := slowdown(wr.reps)
	var wall, cpu, alloc, rss, rate []float64
	for _, r := range wr.reps {
		wall = append(wall, r.wallS/k)
		cpu = append(cpu, r.cpuS/k)
		alloc = append(alloc, float64(r.child.AllocBytes)/1e6)
		rss = append(rss, r.rssMB)
		if r.wallS > 0 {
			rate = append(rate, float64(r.counters()[perf.Accesses])/1e6/r.wallS*k)
		}
	}
	out := map[string]summary{
		"setup_s":           summarize("s", wr.setups),
		"wall_s":            summarize("s", wall),
		"cpu_s":             summarize("s", cpu),
		"alloc_mb":          summarize("MB", alloc),
		"peak_rss_mb":       summarize("MB", rss),
		"sim_maccess_per_s": summarize("Maccess/s", rate),
	}
	for name, s := range out {
		if s.N == 0 {
			delete(out, name)
		}
	}
	return out
}

// counters are the simulated counts of the rep: summed over executed
// specs, or over cold results on serve-mixed.
func (r *rep) counters() perf.Snapshot {
	if r.serve != nil {
		return r.serve.counters
	}
	return r.child.Counters
}

// perLayer assembles the per-layer metrics: simulated counts and span
// timings from the untraced reps, profile self time from the traced
// ones, and the parent's layer probes. Metrics a workload does not
// exercise are zero.
func (wr *wresult) perLayer() map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer() {
		v[m.name] = 0
	}
	for name, x := range wr.probes {
		v[name] = x
	}
	repMedian := func(f func(r *rep) float64) float64 {
		var xs []float64
		for _, r := range wr.reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	if len(wr.reps) > 0 {
		r0 := wr.reps[0]
		c := r0.counters()
		get := func(e perf.Event) float64 { return float64(c[e]) }
		for name, e := range map[string]perf.Event{
			"epc.allocs": perf.EPCAllocs, "epc.page_faults": perf.PageFaults,
			"epc.evictions": perf.EPCEvictions, "epc.loadbacks": perf.EPCLoadBacks,
			"cache.llc_hits": perf.LLCHits, "cache.llc_misses": perf.LLCMisses,
			"tlb.dtlb_misses": perf.DTLBMisses, "tlb.walk_cycles": perf.WalkCycles, "tlb.flushes": perf.TLBFlushes,
			"sgx.accesses": perf.Accesses, "sgx.extent_runs": perf.ExtentRuns, "sgx.extent_accesses": perf.ExtentAccesses,
			"sgx.ecalls": perf.ECalls, "sgx.ocalls": perf.OCalls, "sgx.aex": perf.AEXs,
		} {
			v[name] = get(e)
		}
		v["epc.loadbacks_per_eviction"] = ratio(get(perf.EPCLoadBacks), get(perf.EPCEvictions))
		v["cache.llc_hit_ratio"] = ratio(get(perf.LLCHits), get(perf.LLCHits)+get(perf.LLCMisses))
		v["runtime.gc_cycles"] = repMedian(func(r *rep) float64 { return float64(r.child.GCCycles) })
		if r0.serve != nil {
			v["sim.cycles"], v["sim.startup_cycles"] = float64(r0.serve.cycles), float64(r0.serve.startup)
			wr.serveLayer(v, repMedian)
		} else {
			v["sim.cycles"], v["sim.startup_cycles"] = float64(r0.child.Cycles), float64(r0.child.Startup)
			v["harness.executed_specs"] = repMedian(func(r *rep) float64 { return float64(r.child.Executed) })
			v["harness.cache_hits"] = repMedian(func(r *rep) float64 { return float64(r.child.CacheHits) })
			for _, e := range harness.Experiments() {
				v["harness.exp."+e.ID+"_s"] = repMedian(func(r *rep) float64 { return r.child.ExpS[e.ID] })
			}
			var all []float64
			for _, mode := range []string{"Vanilla", "Native", "LibOS"} {
				var xs []float64
				for _, r := range wr.reps {
					xs = append(xs, r.child.SpecMS[mode]...)
				}
				v["harness.spec_ms_p50."+mode] = median(xs)
				all = append(all, xs...)
			}
			v["harness.spec_ms_p90"], _ = percentile(all, 90)
		}
	}
	if len(wr.traced) > 0 {
		tracedMedian := func(f func(r *rep) float64) float64 {
			var xs []float64
			for _, r := range wr.traced {
				xs = append(xs, f(r))
			}
			return median(xs)
		}
		for _, l := range append(append([]string(nil), layers...), "runtime.gc", "other") {
			v[l+".host_s"] = tracedMedian(func(r *rep) float64 { return r.child.LayerS[l] })
		}
		v["trace.cpu_s"] = tracedMedian(func(r *rep) float64 { return r.child.ProfileS })
		// Both sides at the reference speed: the traced reps run after
		// the untraced ones, when the machine may have sped up or
		// slowed down.
		if untraced := repMedian(func(r *rep) float64 { return r.wallS }) / slowdown(wr.reps); untraced > 0 {
			traced := tracedMedian(func(r *rep) float64 { return r.wallS }) / slowdown(wr.traced)
			v["trace.overhead_pct"] = 100 * (traced/untraced - 1)
		}
	}
	return v
}

// serveLayer fills the service-path metrics: /metrics series per rep,
// and warm latencies pooled over the reps whose generator kept to its
// schedule.
func (wr *wresult) serveLayer(v map[string]float64, repMedian func(func(*rep) float64) float64) {
	series := func(name string) func(*rep) float64 {
		return func(r *rep) float64 { return r.serve.scrape[name] }
	}
	hits, misses := repMedian(series("sgxgauged_cache_hits_total")), repMedian(series("sgxgauged_cache_misses_total"))
	v["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	// Sweeps execute through the daemon's Runner, so every cold spec is
	// one cache miss; serve.runs counts only /v1/run leader runs, which
	// stay zero while warm reads hit.
	v["harness.cache_hits"], v["harness.executed_specs"] = hits, misses
	v["serve.runs"] = repMedian(series("sgxgauged_runs_total"))
	v["serve.coalesced"] = repMedian(series("sgxgauged_runs_coalesced_total"))
	v["store.puts"] = repMedian(series("sgxgauged_store_puts_total"))
	v["store.hits"] = repMedian(series("sgxgauged_store_hits_total"))
	v["journal.records"] = repMedian(series("sgxgauged_journal_records_total"))
	for _, path := range []string{"run", "sweep"} {
		label := `{path="/v1/` + path + `"}`
		v["serve.http_mean_ms."+path] = repMedian(func(r *rep) float64 {
			return 1000 * ratio(r.serve.scrape["sgxgauged_http_request_seconds_sum"+label], r.serve.scrape["sgxgauged_http_request_seconds_count"+label])
		})
	}
	var sweep, warm, late []float64
	for _, r := range wr.reps {
		sweep = append(sweep, r.serve.sweepMS...)
		late = append(late, r.serve.lateMS...)
		if r.serve.valid() {
			warm = append(warm, r.serve.warmMS...)
		} else {
			v["serve.invalid_reps"]++
		}
	}
	// A percentile with too few samples beyond it stays zero.
	v["serve.sweep_ms_p50"], _ = percentile(sweep, 50)
	v["serve.sweep_ms_p90"], _ = percentile(sweep, 90)
	v["serve.warm_ms_p50"], _ = percentile(warm, 50)
	v["serve.warm_ms_p99"], _ = percentile(warm, 99)
	v["serve.gen_late_ms_p99"], _ = percentile(late, 99)
}

// valid reports whether the open-loop generator kept to its schedule:
// a rep whose generator ran later than a tenth of the arrival gap at
// its 99th percentile measured the generator, not the daemon.
func (s *serveRep) valid() bool {
	return len(s.lateMS) == 0 || rank(s.lateMS, 99) <= 0.1*float64(warmGap)/1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printRun writes the end-to-end table and, when traced, the per-layer
// table with one column per workload.
func printRun(w io.Writer, rf runFile) {
	fmt.Fprintf(w, "%-13s %-18s %-10s %12s %12s %12s %4s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	for _, wo := range rf.Workloads {
		for _, m := range endToEnd {
			s, ok := wo.EndToEnd[m.name]
			if !ok {
				fmt.Fprintf(w, "%-13s %-18s %-10s %12s\n", wo.Name, m.name, m.unit, "n/a")
				continue
			}
			fmt.Fprintf(w, "%-13s %-18s %-10s %12.5g %12.5g %12.5g %4d\n", wo.Name, m.name, m.unit, s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(w, "%-13s correct=%v attempted=%d failed=%d digest=%.16s slowdown=%.3f\n", wo.Name, wo.Correct, wo.Attempted, wo.Failed, wo.Digest, wo.Slowdown)
		for _, e := range wo.Errors {
			fmt.Fprintf(w, "%-13s   error: %s\n", wo.Name, e)
		}
	}
	if len(rf.Workloads) == 0 || rf.Workloads[0].PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "\n%-36s %-9s", "per-layer metric", "unit")
	for _, wo := range rf.Workloads {
		fmt.Fprintf(w, " %13s", wo.Name)
	}
	fmt.Fprintln(w, "  should move")
	for _, m := range perLayer() {
		fmt.Fprintf(w, "%-36s %-9s", m.name, m.unit)
		for _, wo := range rf.Workloads {
			fmt.Fprintf(w, " %13.5g", wo.PerLayer[m.name])
		}
		fmt.Fprintf(w, "  %s: %s\n", m.layer, m.moves)
	}
}

// resultLine is the one-line result of a single-workload run: the
// end-to-end metrics, or with tracing the per-layer ones.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(wo workloadOut, trace bool) resultLine {
	c := resultLine{Correct: wo.Correct, Attempted: wo.Attempted, Failed: wo.Failed, Metrics: map[string]resultValue{}}
	if trace {
		for _, m := range perLayer() {
			c.Metrics[m.name] = resultValue{wo.PerLayer[m.name], m.unit}
		}
		return c
	}
	for _, m := range endToEnd {
		if s, ok := wo.EndToEnd[m.name]; ok {
			c.Metrics[m.name] = resultValue{s.Median, m.unit}
		}
	}
	return c
}
