package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// TestMain lets a test re-execute this binary as the sgxgauge
// command, so exit codes and output are checked end to end.
func TestMain(m *testing.M) {
	if os.Getenv("SGXGAUGE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs this binary as sgxgauge with the given arguments.
func runMain(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SGXGAUGE_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// exitCode returns the exit code of a runMain error: 0 for success,
// -1 when the process did not exit on its own.
func exitCode(err error) int {
	var exit *exec.ExitError
	if err == nil {
		return 0
	}
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	return -1
}

// Every counter value printed by `run -counters`, for a workload or
// a scenario, starts at the same column, including after names longer
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

// An unknown id among known ones must fail the whole invocation with
// exit code 2 and the valid ids, before any experiment runs.
func TestUnknownExperimentRejected(t *testing.T) {
	stdout, msg, err := runMain("report", "-epc", "96", "-exp", "fig2,fig99")
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit = %v, want exit code 2 (stderr: %s)", err, msg)
	}
	if stdout != "" {
		t.Errorf("experiments ran before the id check:\n%s", stdout)
	}
	if !strings.Contains(msg, `"fig99"`) {
		t.Errorf("stderr does not name the unknown id: %s", msg)
	}
	for _, e := range harness.Experiments() {
		if !strings.Contains(msg, e.ID) {
			t.Errorf("stderr does not list valid id %s: %s", e.ID, msg)
		}
	}
}

// -epc 0 simulates the default EPC, so the header must name that
// size, not 0.
func TestHeaderNamesEffectiveEPC(t *testing.T) {
	stdout, stderr, err := runMain("report", "-epc", "0", "-exp", "tab2")
	if err != nil {
		t.Fatalf("report -epc 0: %v (stderr: %s)", err, stderr)
	}
	want := fmt.Sprintf("simulated EPC: %d pages", sgx.DefaultEPCPages)
	if !strings.Contains(stdout, want) {
		t.Errorf("header does not contain %q:\n%s", want, stdout)
	}
}

// A negative EPC size is rejected with exit code 2 before anything runs.
func TestNegativeEPCRejected(t *testing.T) {
	stdout, stderr, err := runMain("report", "-epc", "-5", "-exp", "tab2")
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit = %v, want exit code 2 (stderr: %s)", err, stderr)
	}
	if stdout != "" {
		t.Errorf("output for a negative EPC size:\n%s", stdout)
	}
}

func TestSelectExperiments(t *testing.T) {
	all := harness.Experiments()
	got, err := selectExperiments("all")
	if err != nil || len(got) != len(all) {
		t.Fatalf("all: %d experiments, %v; want %d", len(got), err, len(all))
	}
	got, err = selectExperiments("multi, fig2")
	if err != nil || len(got) != 2 || got[0].ID != "fig2" || got[1].ID != "multi" {
		t.Fatalf("multi, fig2: %v, %v; want [fig2 multi] in registry order", got, err)
	}
	for _, spec := range []string{"", "fig99", "all,fig99", "fig2,"} {
		if _, err := selectExperiments(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

// run takes a scenario name like a workload name, with the scenario
// flags, and prints the cast and the scenario's Output.Extra.
func TestRunScenario(t *testing.T) {
	stdout, stderr, err := runMain("run", "-workload", "consensus", "-n", "2", "-epc", "96")
	if err != nil {
		t.Fatalf("run -workload consensus -n 2: %v (stderr: %s)", err, stderr)
	}
	for _, want := range []string{"scenario:  consensus\n", "cast:      ", "\nmetrics:\n", "counters (measured portion):"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output does not contain %q:\n%s", want, stdout)
		}
	}
	cast := stdout[strings.Index(stdout, "cast:"):]
	cast = cast[:strings.IndexByte(cast, '\n')]
	if n := strings.Count(cast, "/"); n != 2 {
		t.Errorf("cast line %q names %d enclaves, want 2", cast, n)
	}
}

// An unknown name is a usage error (exit 2) that lists every workload
// and every scenario.
func TestRunUnknownNameListsBothKinds(t *testing.T) {
	stdout, stderr, err := runMain("run", "-workload", "NoSuchThing")
	if code := exitCode(err); code != 2 {
		t.Fatalf("unknown name: exit = %v, want exit code 2 (stderr: %s)", err, stderr)
	}
	if stdout != "" {
		t.Errorf("output for an unknown name:\n%s", stdout)
	}
	names := append(workloads.WorkloadNames(), workloads.ScenarioNames()...)
	for _, name := range names {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr does not list %s: %s", name, stderr)
		}
	}
}

// A flag that does not apply to the named kind, or to the output
// chosen, is a usage error reported before anything simulates.
func TestRunRejectsMisfitFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "consensus", "-switchless"},
		{"-workload", "consensus", "-pf"},
		{"-workload", "consensus", "-mode", "LibOS"},
		{"-workload", "consensus", "-mode", "Vanilla"},
		{"-workload", "BTree", "-n", "2"},
		{"-workload", "BTree", "-ops", "10"},
		{"-workload", "BTree", "-quantum", "1000"},
		{"-workload", "BTree", "-csv"},
		{"-workload", "BTree", "-trace", "-counters"},
	} {
		stdout, stderr, err := runMain(append([]string{"run"}, args...)...)
		if code := exitCode(err); code != 2 {
			t.Errorf("run %v: exit = %v, want exit code 2 (stderr: %s)", args, err, stderr)
		}
		if stdout != "" {
			t.Errorf("run %v simulated:\n%s", args, stdout)
		}
	}
}

// -trace works on a scenario spec too: the engine attaches the
// collector to the scenario's shared machine.
func TestRunTraceScenario(t *testing.T) {
	stdout, stderr, err := runMain("run", "-workload", "consensus", "-n", "2", "-epc", "96", "-trace")
	if err != nil {
		t.Fatalf("run -trace on a scenario: %v (stderr: %s)", err, stderr)
	}
	if !strings.HasPrefix(stdout, "trace of consensus (") {
		t.Errorf("no trace header:\n%s", stdout)
	}
	if !strings.Contains(stdout, "ecall") {
		t.Errorf("trace summary records no ECALL:\n%s", stdout)
	}
}
