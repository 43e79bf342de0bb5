package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// cmdScenario runs one multi-enclave scenario:
//
//	sgxgauge scenario consensus -n 4
//
// The scenario name is positional; -n scales the default cast, -size
// and -ops override the cast uniformly, and the machine-level flags
// (-epc, -seed, -quantum, -slowpath) mirror "run".
func cmdScenario(args []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sgxgauge scenario <name> [flags]\nscenarios: %s\nflags:\n",
			workloads.ValidScenarioList())
		fs.PrintDefaults()
	}
	n := fs.Int("n", 0, "enclave count (0 = scenario default cast)")
	sizeStr := fs.String("size", "", "override every enclave's input setting (Low|Medium|High)")
	ops := fs.Int("ops", 0, "override every enclave's op count (0 = scenario default)")
	quantum := fs.Uint64("quantum", 0, "scheduler quantum in cycles (0 = default)")
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "EPC size in pages")
	seed := fs.Int64("seed", 1, "random seed")
	showCounters := fs.Bool("counters", false, "print all performance counters")
	slowPath := fs.Bool("slowpath", false, "use the straight-line reference access path (identical results, slower wall-clock; for cross-checking)")

	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		fs.Usage()
		os.Exit(2)
	}
	name := args[0]
	fs.Parse(args[1:])

	spec, err := harness.NewScenarioSpec(name, *n)
	if err != nil {
		fatal(err)
	}
	if *sizeStr != "" {
		size, err := parseSize(*sizeStr)
		if err != nil {
			fatal(err)
		}
		for i := range spec.Scenario.Enclaves {
			spec.Scenario.Enclaves[i].Size = size
		}
	}
	if *ops > 0 {
		for i := range spec.Scenario.Enclaves {
			spec.Scenario.Enclaves[i].Ops = *ops
		}
	}
	spec.Scenario.Quantum = *quantum
	spec.EPCPages = *epcPages
	spec.Seed = *seed
	if *slowPath {
		spec.Machine = &sgx.Config{SlowPath: true}
	}

	res, err := new(harness.Runner).Run(spec)
	if err != nil {
		fatal(err)
	}
	if res.Err != nil {
		fatal(res.Err)
	}

	fmt.Printf("scenario:  %s\n", res.Name)
	fmt.Printf("cast:      ")
	for i, e := range spec.Scenario.Enclaves {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s/%s", e.Role, e.Size)
	}
	fmt.Println()
	fmt.Printf("run time:  %v (%d cycles)\n", cycles.Duration(res.Cycles), res.Cycles)
	if res.StartupCycles > 0 {
		fmt.Printf("startup:   %v (excluded)\n", cycles.Duration(res.StartupCycles))
	}
	fmt.Printf("checksum:  %#x\n", res.Output.Checksum)
	fmt.Printf("ops:       %d\n", res.Output.Ops)
	if res.Output.MeanLatency > 0 {
		fmt.Printf("latency:   %.1f us mean\n", cycles.Micros(uint64(res.Output.MeanLatency)))
	}
	if len(res.Output.Extra) > 0 {
		keys := make([]string, 0, len(res.Output.Extra))
		for k := range res.Output.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("metrics:")
		for _, k := range keys {
			fmt.Printf("  %-20s %g\n", k, res.Output.Extra[k])
		}
	}
	printCounters(os.Stdout, res.Counters, *showCounters)
}
