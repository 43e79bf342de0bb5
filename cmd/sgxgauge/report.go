package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
)

// cmdReport regenerates the paper's tables and figures: the -exp
// experiments of harness.Experiments(), the same registry the
// daemon's /v1/figures endpoint serves, through one Runner.
func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	epcPages := fs.Int("epc", sgx.DefaultEPCPages, "simulated EPC size in 4 KiB pages (paper hardware: 23552)")
	exps := fs.String("exp", "all", "comma-separated experiment ids (fig2,fig3,fig4,tab2,tab4,fig5,fig6a,fig6bc,fig6d,fig7,fig8,tab5,fig9,fig10,multi) or 'all'")
	seed := fs.Int64("seed", 1, "base random seed")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report per-run progress to stderr")
	fs.Parse(args)

	if *epcPages < 0 {
		usageFail(fmt.Errorf("-epc must not be negative, got %d", *epcPages))
	}
	selected, err := selectExperiments(*exps)
	if err != nil {
		usageFail(err)
	}
	r := harness.NewRunner(*epcPages)
	r.Seed = *seed
	r.Jobs = *jobs
	if *progress {
		r.Progress = progressPrinter()
	}

	// -epc 0 runs at the default size; the header names what runs.
	pages := sgx.Config{EPCPages: *epcPages}.WithDefaults().EPCPages
	fmt.Printf("SGXGauge report — simulated EPC: %d pages (%d MiB equivalent scale)\n\n",
		pages, pages*4/1024)
	for _, e := range selected {
		start := time.Now()
		out, err := e.Render(r)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Printf("[%s] (generated in %v)\n%s\n", e.ID, time.Since(start).Round(time.Millisecond), out)
	}
}

// selectExperiments resolves a comma-separated -exp value against
// harness.Experiments(), keeping registry order. "all" selects every
// experiment; any other id that names no experiment is an error that
// lists the valid ids.
func selectExperiments(spec string) ([]harness.Experiment, error) {
	exps := harness.Experiments()
	known := map[string]bool{"all": true}
	valid := make([]string, 0, len(exps)+1)
	for _, e := range exps {
		known[e.ID] = true
		valid = append(valid, e.ID)
	}
	valid = append(valid, "all")

	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, " "))
	}
	if want["all"] {
		return exps, nil
	}
	var selected []harness.Experiment
	for _, e := range exps {
		if want[e.ID] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}
