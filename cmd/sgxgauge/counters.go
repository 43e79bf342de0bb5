package main

import (
	"fmt"
	"io"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
)

// keyCounters are the counters every run summary prints.
var keyCounters = []perf.Event{
	perf.DTLBMisses, perf.WalkCycles, perf.StallCycles, perf.LLCMisses,
	perf.PageFaults, perf.EPCEvictions, perf.EPCLoadBacks,
	perf.ECalls, perf.OCalls, perf.AEXs,
}

// printCounters writes a run's key measured counters or, when all is
// set, every measured counter and then, for a run with a startup,
// every startup counter. Names are padded to the longest perf.Event
// name, so every value starts at the same column.
func printCounters(w io.Writer, res *harness.Result, all bool) {
	width := 0
	for _, e := range perf.Events() {
		width = max(width, len(e.String()))
	}
	block := func(label string, c perf.Snapshot, events []perf.Event) {
		fmt.Fprintln(w, label)
		for _, e := range events {
			fmt.Fprintf(w, "  %-*s %d\n", width, e.String(), c.Get(e))
		}
	}
	if !all {
		block("counters (measured portion):", res.Counters, keyCounters)
		return
	}
	block("counters (measured portion):", res.Counters, perf.Events())
	if res.StartupCycles > 0 {
		block("startup counters:", res.StartupCounters, perf.Events())
	}
}
