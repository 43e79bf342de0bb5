package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

func TestParseMode(t *testing.T) {
	cases := map[string]sgx.Mode{
		"Vanilla": sgx.Vanilla, "vanilla": sgx.Vanilla,
		"Native": sgx.Native, "native": sgx.Native,
		"LibOS": sgx.LibOS, "libos": sgx.LibOS,
	}
	for in, want := range cases {
		got, err := parseMode(in)
		if err != nil || got != want {
			t.Errorf("parseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseMode("SIM"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]workloads.Size{
		"Low": workloads.Low, "low": workloads.Low,
		"Medium": workloads.Medium, "medium": workloads.Medium,
		"High": workloads.High, "high": workloads.High,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSize("XL"); err == nil {
		t.Error("unknown size accepted")
	}
}

// Every counter value printed by `run -counters` and `scenario
// -counters` starts at the same column, including after names longer
// than the old fixed 16-character pad ("transition-faults").
func TestCounterValuesAligned(t *testing.T) {
	var snap perf.Snapshot
	for i, e := range perf.Events() {
		snap[e] = uint64(i) * 1009
	}
	var buf bytes.Buffer
	printCounters(&buf, snap, true)

	col, rows := -1, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		rows++
		at := strings.LastIndexByte(line, ' ') + 1
		name := strings.TrimSpace(line[:at])
		ev, ok := perf.ParseEvent(name)
		if !ok {
			t.Fatalf("row %q: unknown counter %q", line, name)
		}
		if v, err := strconv.ParseUint(line[at:], 10, 64); err != nil || v != snap[ev] {
			t.Fatalf("row %q: value %q, want %d", line, line[at:], snap[ev])
		}
		if col == -1 {
			col = at
		} else if at != col {
			t.Errorf("row %q: value starts at column %d, want %d", line, at, col)
		}
	}
	if want := len(keyCounters) + len(perf.Events()); rows != want {
		t.Errorf("printed %d counter rows, want %d", rows, want)
	}
}
