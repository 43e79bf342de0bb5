package main

import (
	"fmt"
	"io"

	"sgxgauge/internal/perf"
)

// keyCounters are the counters every run summary prints.
var keyCounters = []perf.Event{
	perf.DTLBMisses, perf.WalkCycles, perf.StallCycles, perf.LLCMisses,
	perf.PageFaults, perf.EPCEvictions, perf.EPCLoadBacks,
	perf.ECalls, perf.OCalls, perf.AEXs,
}

// printCounters writes a run's key counters and, when all is set,
// every counter. Names are padded to the longest perf.Event name, so
// every value starts at the same column.
func printCounters(w io.Writer, c perf.Snapshot, all bool) {
	width := 0
	for _, e := range perf.Events() {
		width = max(width, len(e.String()))
	}
	row := func(e perf.Event) { fmt.Fprintf(w, "  %-*s %d\n", width, e.String(), c.Get(e)) }
	fmt.Fprintln(w, "counters (measured portion):")
	for _, e := range keyCounters {
		row(e)
	}
	if all {
		fmt.Fprintln(w, "all counters:")
		for _, e := range perf.Events() {
			row(e)
		}
	}
}
