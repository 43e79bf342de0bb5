// Command sgxgauge is the SGXGauge command line: it runs workloads and
// multi-enclave scenarios on the simulated SGX machine, regenerates the
// paper's tables and figures, and serves both over HTTP.
//
// Usage:
//
//	sgxgauge list
//	sgxgauge run -workload <name> [-mode Vanilla|Native|LibOS] [-size Low|Medium|High]
//	             [-epc pages] [-seed n] [-slowpath] [-counters]
//	             [-switchless] [-pf]                  (workloads only)
//	             [-n enclaves] [-ops n] [-quantum cycles]  (scenarios only)
//	             [-trace [-csv]]
//	sgxgauge report [-epc pages] [-exp id[,id...]] [-seed n] [-j workers] [-progress]
//	sgxgauge sweep [-epc list] [-workloads list] [-mode ...] [-size ...] [-seed n]
//	               [-j workers] [-progress]
//	sgxgauge matrix [-epc pages] [-seed n] [-j workers] [-progress]
//	sgxgauge chaos [-workload <name>] [-mode ...] [-size ...] [-epc pages] [-seed n]
//	               [-chaos-seed n] [-fault-rate list] [-aex] [-balloon] [-tamper]
//	               [-transition] [-retries n] [-j workers] [-progress]
//	sgxgauge recommend -component epc|transitions|mee|syscalls [-epc pages] [-seed n] [-j workers]
//	sgxgauge serve [-addr host:port] [-epc pages] [-seed n] [-j workers]
//	               [-cache entries] [-drain timeout]
//	               [-store.dir dir] [-journal.dir dir] [-fsync]
//	               [-admission.max specs]
//	               [-coordinator [-worker.ttl d] [-task.retries n] | -worker url]
//
// "list" prints the registered workloads and scenarios. "run" executes
// any one of them and prints its run time, its Output.Extra metrics
// and its counters. Unset, -mode means Vanilla for a workload and
// Native (the only mode) for a scenario, and -size means Medium for a
// workload and the default cast for a scenario. A flag that does not
// apply to the named kind is rejected with exit code 2. With -trace,
// "run" attaches an sgx-perf-style event collector and prints its
// per-event summary, or with -csv the raw event stream, instead.
//
// "report" regenerates the paper's evaluation: every experiment in
// harness.Experiments() (fig2 fig3 fig4 tab2 tab4 fig5 fig6a fig6bc
// fig6d fig7 fig8 tab5 fig9 fig10 multi), or the -exp subset, in
// registry order. An unknown id is rejected with exit code 2 before
// anything runs. Runs within an experiment execute on a parallel
// worker pool (-j); results are identical to a serial run.
//
// "sweep" runs a (workload x EPC size) grid and prints a CSV;
// "matrix" regenerates the full (workload x mode x size) grid;
// "chaos" sweeps a workload across adversarial-OS fault-injection
// intensities and prints the degradation table; "recommend" ranks the
// suite's workloads by how hard they stress one SGX component.
//
// "serve" runs the SGXGauge daemon: a long-running HTTP/JSON service
// that runs simulated SGX benchmarks on demand. Endpoints:
//
//	POST /v1/run            run one spec (SpecWire JSON in, result out)
//	POST /v1/sweep          run a spec list, NDJSON job/progress/result stream out
//	GET  /v1/scenarios      list the registered scenarios and their default casts
//	GET  /v1/jobs/{id}      reattach to a live or recovered job's result stream
//	GET  /v1/figures/{fig}  regenerate a paper figure/table (2-10, t2, t4, t5, multi)
//	GET  /v1/results/{key}  content-addressed result lookup (SHA-256 of the spec)
//	GET  /metrics           Prometheus text metrics
//	GET  /healthz           role-aware liveness (503 while a journal replay runs)
//
// Identical specs are cached and concurrent identical requests
// coalesce onto one run. With -journal.dir every accepted job is
// write-ahead-logged: a killed daemon restarted on the same
// directories replays unfinished jobs (store-warm tasks do not
// re-simulate) and clients reattach by job ID. Jobs past the
// -admission.max queue high-water mark are shed with 429 +
// Retry-After (413 for a job heavier than the mark itself). With
// -coordinator, execution farms out to registered workers (-worker
// url on each): tasks carry per-attempt retry
// budgets and are poisoned — failed with their attempt history —
// past -task.retries; a SIGTERM'd worker drains its in-flight batch
// and deregisters. See README "Serving" for the wire schema and curl
// examples, and DESIGN.md sections 9 and 10 for the architecture.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/harness"
	"sgxgauge/internal/serve"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/trace"
	"sgxgauge/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList()
	case "run":
		cmdRun(os.Args[2:])
	case "report":
		cmdReport(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "matrix":
		cmdMatrix(os.Args[2:])
	case "chaos":
		cmdChaos(os.Args[2:])
	case "recommend":
		cmdRecommend(os.Args[2:])
	case "serve":
		if err := serve.Main(os.Args[2:]); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sgxgauge list
  sgxgauge run -workload <name> [-mode Vanilla|Native|LibOS] [-size Low|Medium|High]
               [-epc pages] [-seed n] [-slowpath] [-counters]
               [-switchless] [-pf]                       (workloads only)
               [-n enclaves] [-ops n] [-quantum cycles]  (scenarios only)
               [-trace [-csv]]
  sgxgauge report [-epc pages] [-exp id[,id...]] [-seed n] [-j workers] [-progress]
  sgxgauge sweep [-epc list] [-workloads list] [-mode ...] [-size ...] [-seed n]
                 [-j workers] [-progress]
  sgxgauge matrix [-epc pages] [-seed n] [-j workers] [-progress]
  sgxgauge chaos [-workload <name>] [-mode ...] [-size ...] [-epc pages] [-seed n]
                 [-chaos-seed n] [-fault-rate list] [-aex] [-balloon] [-tamper]
                 [-transition] [-retries n] [-j workers] [-progress]
  sgxgauge recommend -component epc|transitions|mee|syscalls [-epc pages] [-seed n] [-j workers]
  sgxgauge serve [-addr host:port] [-epc pages] [-seed n] [-j workers] [-cache entries]
                 [-drain timeout] [-store.dir dir] [-journal.dir dir] [-fsync]
                 [-admission.max specs] [-coordinator [-worker.ttl d] [-task.retries n] | -worker url]`)
}

// progressPrinter returns a harness progress callback reporting
// completed/total and per-spec wall time on stderr.
func progressPrinter() func(harness.Progress) {
	return func(p harness.Progress) {
		status := ""
		if p.Err != nil {
			status = "  FAILED: " + p.Err.Error()
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s/%v %v%s\n",
			p.Completed, p.Total, p.Name, p.Mode, p.Wall.Round(time.Millisecond), status)
	}
}

func cmdList() {
	// Both tables derive from the shared registry, so an entry
	// registered anywhere (suite workloads, scenarios) lists here
	// without this command knowing about it.
	fmt.Printf("%-18s %-38s %s\n", "Workload", "Property", "Modes")
	for _, d := range workloads.Descriptors() {
		if d.Scenario {
			continue
		}
		w := d.New()
		modes := "Vanilla, LibOS"
		if w.NativePort() {
			modes = "Vanilla, Native, LibOS"
		}
		fmt.Printf("%-18s %-38s %s\n", d.Name, d.Property, modes)
	}
	if names := workloads.ScenarioNames(); len(names) > 0 {
		fmt.Printf("\n%-18s %s\n", "Scenario", "Property")
		for _, name := range names {
			d, _ := workloads.Lookup(name)
			fmt.Printf("%-18s %s\n", d.Name, d.Property)
		}
	}
}

// traceKeep bounds the raw events "run -trace" retains for -csv.
const traceKeep = 100000

// cmdRun executes one registered workload or scenario and prints its
// summary, or with -trace its event trace.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload or scenario name (see 'sgxgauge list')")
	modeStr := fs.String("mode", "", "execution mode (unset: Vanilla; a scenario runs Native only)")
	sizeStr := fs.String("size", "", "input setting (unset: Medium; on a scenario, overrides every enclave's)")
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "EPC size in pages")
	seed := fs.Int64("seed", 1, "random seed")
	switchless := fs.Bool("switchless", false, "enable switchless OCALLs (workloads only)")
	pf := fs.Bool("pf", false, "enable LibOS protected files (workloads only)")
	n := fs.Int("n", 0, "enclave count (scenarios only; 0 = scenario default cast)")
	ops := fs.Int("ops", 0, "override every enclave's op count (scenarios only; 0 = scenario default)")
	quantum := fs.Uint64("quantum", 0, "scheduler quantum in cycles (scenarios only; 0 = default)")
	showCounters := fs.Bool("counters", false, "print every performance counter, measured portion and startup")
	slowPath := fs.Bool("slowpath", false, "use the straight-line reference access path (identical results, slower wall-clock; for cross-checking)")
	traced := fs.Bool("trace", false, "attach an sgx-perf-style event collector and print its per-event summary instead of the run summary")
	csv := fs.Bool("csv", false, "with -trace, print the raw events as CSV instead of the summary")
	fs.Parse(args)

	if *name == "" {
		fs.Usage()
		os.Exit(2)
	}
	d, ok := workloads.Lookup(*name)
	if !ok {
		usageFail(fmt.Errorf("unknown workload or scenario %q (workloads: %s; scenarios: %s)",
			*name, workloads.ValidWorkloadList(), workloads.ValidScenarioList()))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	reject := func(where string, flags ...string) {
		for _, f := range flags {
			if set[f] {
				usageFail(fmt.Errorf("-%s does not apply %s", f, where))
			}
		}
	}
	if d.Scenario {
		reject("to a scenario", "switchless", "pf")
	} else {
		reject("to a workload", "n", "ops", "quantum")
	}
	if *traced {
		reject("with -trace", "counters")
	} else {
		reject("without -trace", "csv")
	}

	mode, size := sgx.Vanilla, workloads.Medium
	if d.Scenario {
		mode = sgx.Native
	}
	if *modeStr != "" {
		var err error
		if mode, err = sgx.ParseMode(*modeStr); err != nil {
			fatal(err)
		}
		if d.Scenario && mode != sgx.Native {
			usageFail(fmt.Errorf("-mode %v does not apply to a scenario (scenarios run Native)", mode))
		}
	}
	if *sizeStr != "" {
		var err error
		if size, err = workloads.ParseSize(*sizeStr); err != nil {
			fatal(err)
		}
	}

	var spec harness.Spec
	if d.Scenario {
		var err error
		if spec, err = harness.NewScenarioSpec(d.Name, *n); err != nil {
			fatal(err)
		}
		for i := range spec.Scenario.Enclaves {
			if *sizeStr != "" {
				spec.Scenario.Enclaves[i].Size = size
			}
			if *ops > 0 {
				spec.Scenario.Enclaves[i].Ops = *ops
			}
		}
		spec.Scenario.Quantum = *quantum
	} else {
		spec = harness.Spec{Workload: d.New(), Mode: mode, Size: size, Switchless: *switchless, ProtectedFiles: *pf}
	}
	spec.EPCPages = *epcPages
	spec.Seed = *seed
	if *slowPath {
		spec.Machine = &sgx.Config{SlowPath: true}
	}
	var collector *trace.Collector
	if *traced {
		collector = trace.New(traceKeep)
		spec.Hooks = harness.Hooks{OnMachine: collector.Attach}
	}

	res := new(harness.Runner).Run(spec)
	if res.Err != nil {
		fatal(res.Err)
	}

	// A workload is described by its size and mode, a scenario by its
	// cast.
	desc := fmt.Sprintf("%s, %s mode", size, mode)
	if d.Scenario {
		cast := make([]string, len(spec.Scenario.Enclaves))
		for i, e := range spec.Scenario.Enclaves {
			cast[i] = fmt.Sprintf("%s/%s", e.Role, e.Size)
		}
		desc = strings.Join(cast, ", ")
	}
	if *traced {
		if *csv {
			fmt.Print(collector.CSV())
			return
		}
		fmt.Printf("trace of %s (%s), run time %d cycles\n\n", res.Name, desc, res.Cycles)
		fmt.Print(collector.Summary())
		return
	}

	if d.Scenario {
		fmt.Printf("scenario:  %s\n", res.Name)
		fmt.Printf("cast:      %s\n", desc)
	} else {
		fmt.Printf("workload:  %s (%s)\n", res.Name, desc)
		fmt.Printf("settings:  %v\n", res.Params.Knobs)
	}
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
	printCounters(os.Stdout, res, *showCounters)
}

// usageFail reports a command-line error, before anything runs, and
// exits with code 2.
func usageFail(err error) {
	fmt.Fprintf(os.Stderr, "sgxgauge: %v\n", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sgxgauge: %v\n", err)
	os.Exit(1)
}
