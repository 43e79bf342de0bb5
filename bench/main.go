// Command bench is the repository benchmark: it measures SGXGauge end
// to end and per layer on four workloads, checks that every simulated
// result is what it should be, and compares two runs.
//
//	go run ./bench [-workload all] [-seed 1] [-rounds 5] [-trace 1] [-o run.json]
//	go run ./bench -workload paper -seed 3 -seconds 25 -trace 0
//	go run ./bench -record
//	go run ./bench compare base.json head.json
//
// Every rep runs in a fresh child process (the bench binary
// re-executed with GOMAXPROCS=2), so each is as cold as a user's
// sgxreport or sgxgauge run. The parent orchestrates, generates all
// load, reads the child's CPU time from its rusage, and reports
// end-to-end times at a reference machine speed measured by a
// calibration kernel. See README.md for the workload and metric
// catalogue.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// digestsPath is where -record writes the seed-1 digests, relative to
// the repository root.
const digestsPath = "bench/testdata/digests.json"

//go:embed testdata/digests.json
var recordedDigests []byte

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workloads (paper, vanilla-grid, epc-thrash, serve-mixed) or all")
	seed := fs.Int64("seed", 1, "seed of spec generation")
	rounds := fs.Int("rounds", 5, "untraced rounds when -seconds is 0")
	seconds := fs.Float64("seconds", 0, "time budget in seconds instead of -rounds (half of it untraced when tracing)")
	trace := fs.Int("trace", 1, "1 adds the traced round and layer probes; a single-workload run then prints per-layer metrics last")
	out := fs.String("o", "", "write the run as JSON to this file")
	record := fs.Bool("record", false, "run the workloads once at seed 1 and write their digests to "+digestsPath)
	short := fs.Bool("short", false, "tiny inputs, for a quick smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p := plan{seed: *seed, short: *short, rounds: *rounds, seconds: *seconds, trace: *trace == 1, log: os.Stderr}
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			p.workloads = append(p.workloads, allWorkloads()...)
			continue
		}
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		p.workloads = append(p.workloads, w)
	}
	var recorded map[string]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		fmt.Fprintln(os.Stderr, "bench: recorded digests:", err)
		return 1
	}
	if *record {
		p.seed, p.short, p.rounds, p.seconds, p.trace = 1, false, 1, 0, false
	} else if !p.short {
		p.digests = map[string]string{}
		for _, w := range p.workloads {
			if p.seed == 1 || w.fixed {
				p.digests[w.name] = recorded[w.name]
			}
		}
	}

	results, err := execute(context.Background(), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rf := runFile{Seed: p.seed, Short: p.short}
	ok := true
	for _, wr := range results {
		rf.Workloads = append(rf.Workloads, wr.out(p.trace))
		ok = ok && wr.correct()
	}
	if *record {
		return writeDigests(recorded, rf)
	}
	printRun(os.Stdout, rf)
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(rf.Workloads) == 1 {
		line, err := json.Marshal(newResultLine(rf.Workloads[0], p.trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// writeDigests records the seed-1 digest of each workload run over the
// recorded ones, so the others keep theirs, and refuses when a rep
// failed.
func writeDigests(digests map[string]string, rf runFile) int {
	for _, wo := range rf.Workloads {
		if !wo.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s failed; not recording: %v\n", wo.Name, wo.Errors)
			return 1
		}
		digests[wo.Name] = wo.Digest
	}
	if err := writeJSON(digestsPath, digests); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", digestsPath)
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareMain prints one row per workload and end-to-end metric of two
// run files, with each side's median and quartiles and a verdict
// against the metric's bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.json head.json")
		return 2
	}
	var base, head runFile
	for i, rf := range []*runFile{&base, &head} {
		b, err := os.ReadFile(args[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := json.Unmarshal(b, rf); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", args[i], err)
			return 1
		}
	}
	fmt.Printf("%-13s %-18s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "base", "[q1, q3]", "head", "[q1, q3]", "change", "verdict")
	for _, bw := range base.Workloads {
		var hw *workloadOut
		for i := range head.Workloads {
			if head.Workloads[i].Name == bw.Name {
				hw = &head.Workloads[i]
			}
		}
		if hw == nil {
			continue
		}
		if bw.Digest != hw.Digest {
			fmt.Printf("%-13s digests differ: simulated results changed\n", bw.Name)
		}
		for _, m := range endToEnd {
			b, h := bw.EndToEnd[m.name], hw.EndToEnd[m.name]
			change := 0.0
			if b.Median != 0 {
				change = 100 * (h.Median/b.Median - 1)
			}
			fmt.Printf("%-13s %-18s %12.5g %25s %12.5g %25s %+7.1f%%  %s\n", bw.Name, m.name,
				b.Median, fmt.Sprintf("[%.5g, %.5g]", b.Q1, b.Q3), h.Median, fmt.Sprintf("[%.5g, %.5g]", h.Q1, h.Q3), change, verdict(m, b, h))
		}
	}
	return 0
}
