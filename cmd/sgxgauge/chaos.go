package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// cmdChaos sweeps one workload across fault-injection intensities and
// prints the degradation table: run time, slowdown against the clean
// baseline, and per-class fault counts at each rate.
func cmdChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	name := fs.String("workload", "BTree", "workload name (see 'sgxgauge list')")
	modeStr := fs.String("mode", "Native", "execution mode")
	sizeStr := fs.String("size", "Medium", "input setting")
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "EPC size in pages")
	seed := fs.Int64("seed", 1, "workload random seed")
	chaosSeed := fs.Uint64("chaos-seed", 1, "fault injector seed; equal seeds reproduce runs exactly")
	rateList := fs.String("fault-rate", "0,0.0005,0.002,0.01,0.05",
		"comma-separated per-opportunity fault rates to sweep (0 = clean baseline)")
	aex := fs.Bool("aex", true, "inject AEX interrupt storms")
	balloon := fs.Bool("balloon", true, "inject EPC ballooning (OS resizes the EPC mid-run)")
	tamper := fs.Bool("tamper", true, "inject untrusted-memory attacks on evicted pages")
	transition := fs.Bool("transition", true, "inject transient ECALL/OCALL transition failures")
	retries := fs.Int("retries", 2, "retry attempts for transient injected faults")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report per-run progress on stderr")
	fs.Parse(args)

	w, err := suite.ByName(*name)
	if err != nil {
		fatal(err)
	}
	mode, err := sgx.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	size, err := workloads.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	rates, err := parseRates(*rateList)
	if err != nil {
		fatal(err)
	}

	template := chaos.Config{
		Seed:            *chaosSeed,
		AEXStorm:        *aex,
		EPCBalloon:      *balloon,
		MemTamper:       *tamper,
		TransitionFault: *transition,
	}
	base := harness.Spec{
		Workload: w,
		Mode:     mode,
		Size:     size,
		EPCPages: *epcPages,
		Seed:     *seed,
	}

	opts := []harness.Option{harness.Retry(*retries)}
	if *progress {
		opts = append(opts, harness.OnProgress(progressPrinter()))
	}

	points := (&harness.Runner{Jobs: *jobs}).ChaosSweep(base, template, rates, opts...)

	classes := []string{}
	for _, c := range []struct {
		on   bool
		name string
	}{
		{*aex, chaos.AEXStorm.String()},
		{*balloon, chaos.EPCBalloon.String()},
		{*tamper, chaos.MemTamper.String()},
		{*transition, chaos.TransitionFault.String()},
	} {
		if c.on {
			classes = append(classes, c.name)
		}
	}
	fmt.Printf("workload: %s (%s, %v mode), chaos seed %d, classes: %s\n\n",
		w.Name(), size, mode, *chaosSeed, strings.Join(classes, ", "))
	fmt.Print(harness.RenderChaosTable(points))
}

func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		r, err := strconv.ParseFloat(p, 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad fault rate %q (want numbers in [0, 1])", p)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no fault rates given")
	}
	return rates, nil
}
