package main

import (
	"flag"
	"fmt"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

// cmdMatrix runs the paper's main experiment grid — every workload in
// every supported mode at every input setting — on the parallel
// engine and emits one CSV row per cell, with overheads against the
// same-size Vanilla run. This is the full-matrix regeneration path;
// -j controls the worker pool.
func cmdMatrix(args []string) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "EPC size in pages")
	seed := fs.Int64("seed", 1, "random seed")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report per-run progress to stderr")
	fs.Parse(args)

	r := harness.NewRunner(*epcPages)
	r.Seed = *seed
	r.Jobs = *jobs
	if *progress {
		r.Progress = progressPrinter()
	}

	specs := harness.MatrixSpecs()
	//sgxlint:ignore droppederr RunAll's error is always nil; a spec's failure travels in its Result.Err
	results, _ := r.RunAll(specs)
	for _, res := range results {
		if res.Err != nil {
			fatal(res.Err)
		}
	}

	// The Vanilla cell of each (workload, size) is in the batch;
	// index it for the overhead column.
	type cell struct {
		name string
		size string
	}
	vanilla := map[cell]*harness.Result{}
	for i, spec := range specs {
		if spec.Mode == sgx.Vanilla {
			vanilla[cell{spec.Workload.Name(), spec.Size.String()}] = results[i]
		}
	}

	fmt.Println("workload,mode,size,cycles,overhead_vs_vanilla,dtlb_misses,page_faults,epc_evictions,epc_loadbacks")
	for i, spec := range specs {
		res := results[i]
		van := vanilla[cell{spec.Workload.Name(), spec.Size.String()}]
		fmt.Printf("%s,%s,%s,%d,%.3f,%d,%d,%d,%d\n",
			res.Name, res.Mode, spec.Size, res.Cycles,
			harness.Overhead(res, van),
			res.Counters.Get(perf.DTLBMisses),
			res.Counters.Get(perf.PageFaults),
			res.Counters.Get(perf.EPCEvictions),
			res.Counters.Get(perf.EPCLoadBacks))
	}
}
