// Command sgxgauge runs individual SGXGauge workloads on the simulated
// SGX machine and reports run time and performance counters.
//
// Usage:
//
//	sgxgauge list
//	sgxgauge run -workload BTree [-mode Native] [-size Medium]
//	              [-epc pages] [-seed n] [-switchless] [-pf] [-counters]
//	sgxgauge matrix [-epc pages] [-j workers]
//	sgxgauge chaos [-workload BTree] [-chaos-seed n] [-fault-rate 0,0.01,...]
//	sgxgauge serve [-addr host:port] [-epc pages] [-seed n] [-j workers]
//	               [-cache entries] [-drain timeout]
//	               [-store.dir dir] [-store.fsync]
//	               [-journal.dir dir] [-journal.fsync]
//	               [-admission.max specs]
//	               [-coordinator [-worker.ttl d] [-task.retries n] | -worker url]
//
// "list" prints the suite; "run" executes one workload; "matrix"
// regenerates the full (workload x mode x size) grid on the
// parallel engine; "chaos" sweeps a workload across adversarial-OS
// fault-injection intensities and prints the degradation table.
//
// "serve" runs the SGXGauge daemon: a long-running HTTP/JSON service
// that runs simulated SGX benchmarks on demand. Endpoints:
//
//	POST /v1/run            run one spec (SpecWire JSON in, result out)
//	POST /v1/sweep          run a spec list, NDJSON job/progress/result stream out
//	GET  /v1/jobs/{id}      reattach to a live or recovered job's result stream
//	GET  /v1/figures/{fig}  regenerate a paper figure/table (2-10, t2, t4, t5)
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
// Retry-After. With -coordinator, execution farms out to registered
// workers (-worker url on each): tasks carry per-attempt retry
// budgets and are poisoned — failed with their attempt history —
// past -task.retries; a SIGTERM'd worker drains its in-flight batch
// and deregisters. See README "Serving" for the wire schema and curl
// examples, and DESIGN.md sections 9 and 10 for the architecture.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/harness"
	"sgxgauge/internal/serve"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
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
	case "scenario":
		cmdScenario(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
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
  sgxgauge run   -workload <name> [-mode Vanilla|Native|LibOS] [-size Low|Medium|High]
                 [-epc pages] [-seed n] [-switchless] [-pf] [-counters]
  sgxgauge scenario <name> [-n enclaves] [-size Low|Medium|High] [-ops n] [-quantum cycles]
                 [-epc pages] [-seed n] [-slowpath] [-counters]
  sgxgauge trace -workload <name> [-mode ...] [-size ...] [-epc pages] [-csv]
  sgxgauge sweep [-epc list] [-workloads list] [-mode ...] [-size ...] [-j workers] [-progress]
  sgxgauge matrix [-epc pages] [-seed n] [-j workers] [-progress]
  sgxgauge chaos [-workload <name>] [-mode ...] [-size ...] [-chaos-seed n] [-fault-rate list]
                 [-aex] [-balloon] [-tamper] [-transition] [-retries n] [-j workers] [-progress]
  sgxgauge recommend -component epc|transitions|mee|syscalls [-epc pages] [-j workers]
  sgxgauge serve [-addr host:port] [-epc pages] [-seed n] [-j workers] [-cache entries]
                 [-drain timeout] [-store.dir dir] [-store.fsync] [-journal.dir dir] [-journal.fsync]
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

func parseMode(s string) (sgx.Mode, error) { return sgx.ParseMode(s) }

func parseSize(s string) (workloads.Size, error) { return workloads.ParseSize(s) }

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload name (see 'sgxgauge list')")
	modeStr := fs.String("mode", "Vanilla", "execution mode")
	sizeStr := fs.String("size", "Medium", "input setting")
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "EPC size in pages")
	seed := fs.Int64("seed", 1, "random seed")
	switchless := fs.Bool("switchless", false, "enable switchless OCALLs")
	pf := fs.Bool("pf", false, "enable LibOS protected files")
	showCounters := fs.Bool("counters", false, "print all performance counters")
	slowPath := fs.Bool("slowpath", false, "use the straight-line reference access path (identical results, slower wall-clock; for cross-checking)")
	fs.Parse(args)

	if *name == "" {
		fs.Usage()
		os.Exit(2)
	}
	w, err := suite.ByName(*name)
	if err != nil {
		fatal(err)
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	size, err := parseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}

	spec := harness.Spec{
		Workload:       w,
		Mode:           mode,
		Size:           size,
		EPCPages:       *epcPages,
		Seed:           *seed,
		Switchless:     *switchless,
		ProtectedFiles: *pf,
	}
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

	fmt.Printf("workload:  %s (%s, %s mode)\n", res.Name, size, mode)
	fmt.Printf("settings:  %v\n", res.Params.Knobs)
	fmt.Printf("run time:  %v (%d cycles)\n", cycles.Duration(res.Cycles), res.Cycles)
	if res.StartupCycles > 0 {
		fmt.Printf("startup:   %v (excluded)\n", cycles.Duration(res.StartupCycles))
	}
	fmt.Printf("checksum:  %#x\n", res.Output.Checksum)
	fmt.Printf("ops:       %d\n", res.Output.Ops)
	if res.Output.MeanLatency > 0 {
		fmt.Printf("latency:   %.1f us mean\n", cycles.Micros(uint64(res.Output.MeanLatency)))
	}
	printCounters(os.Stdout, res.Counters, *showCounters)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sgxgauge: %v\n", err)
	os.Exit(1)
}
