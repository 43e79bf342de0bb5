// Command sgxreport regenerates every table and figure of the
// SGXGauge paper's evaluation against the simulated SGX machine.
//
// Usage:
//
//	sgxreport [-epc pages] [-exp id[,id...]] [-j workers] [-progress]
//
// Experiment ids: fig2 fig3 fig4 tab2 tab4 fig5 fig6a fig6bc fig6d
// fig7 fig8 tab5 fig9 fig10 multi, or "all" (default). The list comes
// from harness.Experiments(), the same registry the daemon's
// /v1/figures endpoint serves; an unknown id is rejected with exit
// code 2 before anything runs. Runs within an experiment execute on a
// parallel worker pool (-j); results are identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
)

func main() {
	epcPages := flag.Int("epc", sgx.DefaultEPCPages, "simulated EPC size in 4 KiB pages (paper hardware: 23552)")
	exps := flag.String("exp", "all", "comma-separated experiment ids (fig2,fig3,fig4,tab2,tab4,fig5,fig6a,fig6bc,fig6d,fig7,fig8,tab5,fig9,fig10,multi) or 'all'")
	seed := flag.Int64("seed", 1, "base random seed")
	jobs := flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report per-run progress to stderr")
	flag.Parse()

	if *epcPages < 0 {
		fmt.Fprintf(os.Stderr, "sgxreport: -epc must not be negative, got %d\n", *epcPages)
		os.Exit(2)
	}
	r := harness.NewRunner(*epcPages)
	r.Seed = *seed
	r.Jobs = *jobs
	if *progress {
		r.Progress = func(p harness.Progress) {
			status := ""
			if p.Err != nil {
				status = "  FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%v %v%s\n",
				p.Completed, p.Total, p.Name, p.Mode, p.Wall.Round(time.Millisecond), status)
		}
	}

	selected, err := selectExperiments(*exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgxreport: %v\n", err)
		os.Exit(2)
	}

	// -epc 0 runs at the default size; the header names what runs.
	pages := sgx.Config{EPCPages: *epcPages}.WithDefaults().EPCPages
	fmt.Printf("SGXGauge report — simulated EPC: %d pages (%d MiB equivalent scale)\n\n",
		pages, pages*4/1024)
	for _, e := range selected {
		start := time.Now()
		out, err := e.Render(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgxreport: %s: %v\n", e.ID, err)
			os.Exit(1)
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
