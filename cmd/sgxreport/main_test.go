package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
)

// TestMain lets a test re-execute this binary as the sgxreport
// command, so exit codes and output are checked end to end.
func TestMain(m *testing.M) {
	if os.Getenv("SGXREPORT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An unknown id among known ones must fail the whole invocation with
// exit code 2 and the valid ids, before any experiment runs.
func TestUnknownExperimentRejected(t *testing.T) {
	stdout, msg, err := runMain("-epc", "96", "-exp", "fig2,fig99")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
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

// runMain runs this binary as sgxreport with the given arguments.
func runMain(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SGXREPORT_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// -epc 0 simulates the default EPC, so the header must name that
// size, not 0.
func TestHeaderNamesEffectiveEPC(t *testing.T) {
	stdout, stderr, err := runMain("-epc", "0", "-exp", "tab2")
	if err != nil {
		t.Fatalf("sgxreport -epc 0: %v (stderr: %s)", err, stderr)
	}
	want := fmt.Sprintf("simulated EPC: %d pages", sgx.DefaultEPCPages)
	if !strings.Contains(stdout, want) {
		t.Errorf("header does not contain %q:\n%s", want, stdout)
	}
}

// A negative EPC size is rejected with exit code 2 before anything runs.
func TestNegativeEPCRejected(t *testing.T) {
	stdout, stderr, err := runMain("-epc", "-5", "-exp", "tab2")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
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
