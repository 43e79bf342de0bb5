package main

import "sgxgauge/internal/harness"

// epcPages is the simulated EPC size of every workload. At 256 pages
// the paper's Low/Medium/High inputs still straddle the EPC boundary
// while a whole-paper rep stays within a few seconds.
const epcPages = 256

// workload is one input set the benchmark runs, plus the reason it
// was chosen: each stresses a different slice of the layers.
type workload struct {
	name string
	why  string
	// serve marks the workload whose load the parent generates over
	// HTTP; the others run entirely inside the child.
	serve bool
	// fixed marks a workload whose input does not depend on the seed,
	// so its recorded digest applies at every seed.
	fixed bool
	// child runs one rep inside the child process.
	child childFunc
}

// allWorkloads returns the catalogue in report order.
func allWorkloads() []*workload {
	return []*workload{
		{name: "paper", why: "every experiment of the report through one cold Runner: the end-to-end number, dominated by LibOS boots, enclave measurement and EPC eviction storms", fixed: true, child: paperChild},
		{name: "vanilla-grid", why: "all workloads in Vanilla mode: no enclave, so host time is workload kernels, access dispatch, TLB and LLC; the control for EPC, MEE and boot changes", child: gridChild(vanillaGridSpecs)},
		{name: "epc-thrash", why: "Native ports at High input: footprint above the EPC, so evictions and load-backs run in near-equal numbers (MEE seal and verify, LLC shootdowns)", child: gridChild(epcThrashSpecs)},
		{name: "serve-mixed", why: "the daemon over store and journal: 40 cold closed-loop sweeps plus warm open-loop cache reads at 200 req/s; the only load on serve, store, journal, attest", serve: true, child: serveChild},
	}
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one catalogue entry. End-to-end metrics carry a bound,
// per-layer metrics the layer they belong to and the end-to-end
// metric and workload a change to that layer should move.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	layer  string
	moves  string
}

// endToEnd lists the metrics a user sees. Every one is measured on
// every workload and is never zero. Bounds are the shares by which a
// median may worsen before a change counts as a regression.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "sim_maccess_per_s", unit: "Maccess/s", better: "higher", bound: 0.25},
}

// perLayer lists the per-layer metrics of the traced round. Simulated
// counts repeat exactly; host_s values are profile self time and *_ns
// values come from the parent's layer probes.
func perLayer() []metric {
	var ms []metric
	for _, e := range harness.Experiments() {
		ms = append(ms, metric{name: "harness.exp." + e.ID + "_s", unit: "s", better: "lower", layer: "harness", moves: "wall_s on paper"})
	}
	add := func(layer, moves string, entries ...metric) {
		for _, m := range entries {
			m.layer, m.moves = layer, moves
			ms = append(ms, m)
		}
	}
	add("harness", "wall_s on paper; a batch waits for its slowest spec",
		metric{name: "harness.host_s", unit: "s", better: "lower"},
		metric{name: "harness.executed_specs", unit: "count", better: "lower"},
		metric{name: "harness.cache_hits", unit: "count", better: "higher"},
		metric{name: "harness.spec_ms_p50.Vanilla", unit: "ms", better: "lower"},
		metric{name: "harness.spec_ms_p50.Native", unit: "ms", better: "lower"},
		metric{name: "harness.spec_ms_p50.LibOS", unit: "ms", better: "lower"},
		metric{name: "harness.spec_ms_p90", unit: "ms", better: "lower"})
	add("enclave,libos", "wall_s and cpu_s on paper; zero on vanilla-grid",
		metric{name: "sim.startup_cycles", unit: "cycles", better: "lower"},
		metric{name: "enclave.host_s", unit: "s", better: "lower"},
		metric{name: "libos.host_s", unit: "s", better: "lower"},
		metric{name: "enclave.extend_measurement_ns", unit: "ns", better: "lower"},
		metric{name: "libos.start_ms", unit: "ms", better: "lower"})
	add("epc,mee", "wall_s on epc-thrash and paper; no evictions or load-backs on vanilla-grid",
		metric{name: "epc.allocs", unit: "count", better: "lower"},
		metric{name: "epc.page_faults", unit: "count", better: "lower"},
		metric{name: "epc.evictions", unit: "count", better: "lower"},
		metric{name: "epc.loadbacks", unit: "count", better: "lower"},
		metric{name: "epc.loadbacks_per_eviction", unit: "ratio", better: "lower"},
		metric{name: "epc.host_s", unit: "s", better: "lower"},
		metric{name: "mee.host_s", unit: "s", better: "lower"},
		metric{name: "epc.fault_evict_ns", unit: "ns", better: "lower"},
		metric{name: "mee.seal_page_ns", unit: "ns", better: "lower"},
		metric{name: "mee.verify_page_ns", unit: "ns", better: "lower"})
	add("cache,tlb", "sim_maccess_per_s on vanilla-grid; invalidate_range moves wall_s on epc-thrash",
		metric{name: "cache.llc_hits", unit: "count", better: "higher"},
		metric{name: "cache.llc_misses", unit: "count", better: "lower"},
		metric{name: "cache.llc_hit_ratio", unit: "ratio", better: "higher"},
		metric{name: "tlb.dtlb_misses", unit: "count", better: "lower"},
		metric{name: "tlb.walk_cycles", unit: "cycles", better: "lower"},
		metric{name: "tlb.flushes", unit: "count", better: "lower"},
		metric{name: "cache.host_s", unit: "s", better: "lower"},
		metric{name: "tlb.host_s", unit: "s", better: "lower"},
		metric{name: "cache.access_ns", unit: "ns", better: "lower"},
		metric{name: "cache.access_run_ns_per_line", unit: "ns", better: "lower"},
		metric{name: "cache.invalidate_range_ns_per_line", unit: "ns", better: "lower"},
		metric{name: "tlb.lookup_ns", unit: "ns", better: "lower"},
		metric{name: "tlb.insert_ns", unit: "ns", better: "lower"})
	add("sgx", "sim_maccess_per_s and wall_s on vanilla-grid",
		metric{name: "sim.cycles", unit: "cycles", better: "lower"},
		metric{name: "sgx.accesses", unit: "count", better: "lower"},
		metric{name: "sgx.extent_runs", unit: "count", better: "higher"},
		metric{name: "sgx.extent_accesses", unit: "count", better: "higher"},
		metric{name: "sgx.ecalls", unit: "count", better: "lower"},
		metric{name: "sgx.ocalls", unit: "count", better: "lower"},
		metric{name: "sgx.aex", unit: "count", better: "lower"},
		metric{name: "sgx.host_s", unit: "s", better: "lower"},
		metric{name: "sgx.read_u64_ns", unit: "ns", better: "lower"},
		metric{name: "sgx.extent_dense_ns", unit: "ns", better: "lower"},
		metric{name: "sgx.extent_line_ns", unit: "ns", better: "lower"},
		metric{name: "sgx.extent_word_ns", unit: "ns", better: "lower"},
		metric{name: "sgx.extent_split_ns", unit: "ns", better: "lower"},
		metric{name: "sgx.ecall_ns", unit: "ns", better: "lower"},
		metric{name: "sgx.ocall_ns", unit: "ns", better: "lower"})
	add("workloads", "wall_s on vanilla-grid",
		metric{name: "workloads.host_s", unit: "s", better: "lower"})
	add("serve,store,journal,attest", "serve.warm_ms_* (pure service path) and wall_s and serve.sweep_ms_* on serve-mixed",
		metric{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
		metric{name: "serve.runs", unit: "count", better: "lower"},
		metric{name: "serve.coalesced", unit: "count", better: "higher"},
		metric{name: "store.puts", unit: "count", better: "lower"},
		metric{name: "store.hits", unit: "count", better: "higher"},
		metric{name: "journal.records", unit: "count", better: "lower"},
		metric{name: "serve.http_mean_ms.run", unit: "ms", better: "lower"},
		metric{name: "serve.http_mean_ms.sweep", unit: "ms", better: "lower"},
		metric{name: "serve.sweep_ms_p50", unit: "ms", better: "lower"},
		metric{name: "serve.sweep_ms_p90", unit: "ms", better: "lower"},
		metric{name: "serve.warm_ms_p50", unit: "ms", better: "lower"},
		metric{name: "serve.warm_ms_p99", unit: "ms", better: "lower"},
		metric{name: "serve.gen_late_ms_p99", unit: "ms", better: "lower"},
		metric{name: "serve.invalid_reps", unit: "count", better: "lower"},
		metric{name: "serve.host_s", unit: "s", better: "lower"},
		metric{name: "store.host_s", unit: "s", better: "lower"},
		metric{name: "journal.host_s", unit: "s", better: "lower"},
		metric{name: "attest.host_s", unit: "s", better: "lower"})
	add("runtime", "alloc_mb, cpu_s and peak_rss_mb on paper",
		metric{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metric{name: "runtime.gc.host_s", unit: "s", better: "lower"},
		metric{name: "other.host_s", unit: "s", better: "lower"},
		metric{name: "trace.cpu_s", unit: "s", better: "lower"},
		metric{name: "trace.overhead_pct", unit: "%", better: "lower"})
	return ms
}

// layers are the repository modules the traced round charges profile
// samples to; a sample whose stack reaches none of them is "other"
// (or "runtime.gc" for the collector's own workers).
var layers = []string{"harness", "enclave", "libos", "epc", "mee", "cache", "tlb", "sgx", "workloads", "serve", "store", "journal", "attest"}
