package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// cmdSweep runs a (workload x EPC size) grid in one mode/size and
// emits a CSV of run times and key counters — the raw material for
// sensitivity plots (how does each workload's overhead move as the
// EPC grows?). The whole grid is batched through the parallel engine;
// -j controls the worker pool and CSV rows keep the serial order.
func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	epcList := fs.String("epc", "128,256,512", "comma-separated EPC sizes in pages")
	wlList := fs.String("workloads", "BTree,HashJoin,BFS", "comma-separated workload names")
	modeStr := fs.String("mode", "Native", "execution mode")
	sizeStr := fs.String("size", "Medium", "input setting")
	seed := fs.Int64("seed", 1, "random seed")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report per-run progress to stderr")
	fs.Parse(args)

	mode, err := sgx.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	size, err := workloads.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}

	var epcs []int
	for _, s := range strings.Split(*epcList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("bad EPC size %q", s))
		}
		epcs = append(epcs, v)
	}

	var ws []workloads.Workload
	for _, name := range strings.Split(*wlList, ",") {
		w, err := suite.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		if mode == sgx.Native && !w.NativePort() {
			fmt.Fprintf(os.Stderr, "sgxgauge: skipping %s (no Native port)\n", w.Name())
			continue
		}
		ws = append(ws, w)
	}

	// Two specs per cell — the measured mode and its Vanilla baseline —
	// in CSV row order. The runner dedupes repeats within the batch.
	var specs []harness.Spec
	for _, w := range ws {
		for _, epc := range epcs {
			specs = append(specs,
				harness.Spec{Workload: w, Mode: mode, Size: size, EPCPages: epc, Seed: *seed},
				harness.Spec{Workload: w, Mode: sgx.Vanilla, Size: size, EPCPages: epc, Seed: *seed})
		}
	}

	r := harness.NewRunner(sgx.DefaultEPCPages)
	r.Seed = *seed
	r.Jobs = *jobs
	if *progress {
		r.Progress = progressPrinter()
	}
	//sgxlint:ignore droppederr RunAll's error is always nil; a spec's failure travels in its Result.Err
	results, _ := r.RunAll(specs)
	for _, res := range results {
		if res.Err != nil {
			fatal(res.Err)
		}
	}

	fmt.Println("workload,mode,size,epc_pages,cycles,overhead_vs_vanilla,dtlb_misses,page_faults,epc_evictions,epc_loadbacks")
	i := 0
	for _, w := range ws {
		for _, epc := range epcs {
			res, van := results[i], results[i+1]
			i += 2
			fmt.Printf("%s,%s,%s,%d,%d,%.3f,%d,%d,%d,%d\n",
				w.Name(), mode, size, epc, res.Cycles,
				harness.Overhead(res, van),
				res.Counters.Get(perf.DTLBMisses),
				res.Counters.Get(perf.PageFaults),
				res.Counters.Get(perf.EPCEvictions),
				res.Counters.Get(perf.EPCLoadBacks))
		}
	}
}
