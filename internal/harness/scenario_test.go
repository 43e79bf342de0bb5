package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/scenario"
)

// scenarioSpec builds a runnable spec for one scenario with a small
// EPC so the casts contend without the tests taking minutes.
func scenarioSpec(t *testing.T, name string, n int, seed int64) Spec {
	t.Helper()
	spec, err := NewScenarioSpec(name, n)
	if err != nil {
		t.Fatalf("building %s spec: %v", name, err)
	}
	spec.EPCPages = testEPC
	spec.Seed = seed
	return spec
}

// allScenarioSpecs covers every registered scenario; a scenario added
// without showing up here fails the count check.
func allScenarioSpecs(t *testing.T, seed int64) map[string]Spec {
	t.Helper()
	specs := map[string]Spec{
		"consensus":    scenarioSpec(t, "consensus", 3, seed),
		"interference": scenarioSpec(t, "interference", 4, seed),
	}
	if got := len(scenario.Names()); len(specs) != got {
		t.Fatalf("test covers %d scenarios, registry has %d (%v)", len(specs), got, scenario.Names())
	}
	return specs
}

// encodeForCompare canonicalizes a result to bytes; two runs are
// "bit-identical" exactly when these agree.
func encodeForCompare(t *testing.T, res *Result) []byte {
	t.Helper()
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	return enc
}

// TestScenarioRerunBitIdentical proves a scenario run is a pure
// function of its spec: same seed, same bytes.
func TestScenarioRerunBitIdentical(t *testing.T) {
	for name, spec := range allScenarioSpecs(t, 42) {
		t.Run(name, func(t *testing.T) {
			a, errA := runOne(spec, nil)
			b, errB := runOne(spec, nil)
			if errA != nil || errB != nil {
				t.Fatalf("runs failed: %v / %v", errA, errB)
			}
			if a.Output.Ops == 0 {
				t.Fatal("scenario completed zero ops")
			}
			if !bytes.Equal(encodeForCompare(t, a), encodeForCompare(t, b)) {
				t.Fatalf("rerun diverged:\n a %+v\n b %+v", a, b)
			}
		})
	}
}

// TestScenarioSerialParallelIdentical proves RunAll produces the same
// bytes at -j 1 and -j 8 — scenario interleaving is inside one spec's
// machine, so batch parallelism cannot perturb it.
func TestScenarioSerialParallelIdentical(t *testing.T) {
	var specs []Spec
	for _, spec := range allScenarioSpecs(t, 7) {
		specs = append(specs, spec)
	}
	// Map order is not deterministic; fix it by name so both batches
	// run the same slice.
	for i := range specs {
		for j := i + 1; j < len(specs); j++ {
			if specs[j].Scenario.Name < specs[i].Scenario.Name {
				specs[i], specs[j] = specs[j], specs[i]
			}
		}
	}

	serial := (&Runner{EPCPages: testEPC, Jobs: 1}).runAll(specs)
	parallel := (&Runner{EPCPages: testEPC, Jobs: 8}).runAll(specs)
	for i := range specs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("%s failed: serial %v, parallel %v", specs[i].Scenario.Name, serial[i].Err, parallel[i].Err)
		}
		if !bytes.Equal(encodeForCompare(t, serial[i]), encodeForCompare(t, parallel[i])) {
			t.Errorf("%s: -j 1 and -j 8 diverged", specs[i].Scenario.Name)
		}
	}
}

// TestScenarioFastSlowEquivalence is the scenario counterpart of
// TestWorkloadFastSlowEquivalence: the optimized access path and
// Config.SlowPath must agree bit-for-bit on interleaved multi-enclave
// traffic too.
func TestScenarioFastSlowEquivalence(t *testing.T) {
	for name, spec := range allScenarioSpecs(t, 11) {
		t.Run(name, func(t *testing.T) { runDifferential(t, spec) })
	}
}

// TestScenarioSpecWireRoundTrip proves scenario specs travel the wire
// like workload specs: encode → decode → same key.
func TestScenarioSpecWireRoundTrip(t *testing.T) {
	spec := scenarioSpec(t, "consensus", 4, 5)
	enc, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := back.UnmarshalJSON(enc); err != nil {
		t.Fatalf("decoding %s: %v", enc, err)
	}
	k1, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SpecKey(back)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("round trip moved the key: %s vs %s", k1, k2)
	}
}

// TestScenarioWireValidation locks the strict-decode behavior: bad
// envelopes are rejected with errors that name what would have been
// valid.
func TestScenarioWireValidation(t *testing.T) {
	cases := map[string]struct {
		body string
		want string
	}{
		"unknown-scenario": {
			`{"mode":"Native","size":"Low","scenario":{"version":1,"name":"nope"}}`,
			"valid: " + workloads.ValidScenarioList(),
		},
		"bad-version": {
			`{"mode":"Native","size":"Low","scenario":{"version":9,"name":"consensus"}}`,
			"version 9",
		},
		"workload-and-scenario": {
			`{"workload":"BTree","mode":"Native","size":"Low","scenario":{"version":1,"name":"consensus"}}`,
			"both",
		},
		"wrong-mode": {
			`{"mode":"LibOS","size":"Low","scenario":{"version":1,"name":"consensus"}}`,
			"Native mode",
		},
		"params-on-scenario": {
			`{"mode":"Native","size":"Low","params":{"size":"Low"},"scenario":{"version":1,"name":"consensus"}}`,
			"do not apply",
		},
		"size-on-scenario": {
			`{"mode":"Native","size":"High","scenario":{"version":1,"name":"consensus"}}`,
			"size does not apply",
		},
		"bad-cast": {
			`{"mode":"Native","size":"Low","scenario":{"version":1,"name":"consensus","enclaves":[{"role":"node"}]}}`,
			"at least 2 nodes",
		},
		"uneven-ops": {
			`{"mode":"Native","size":"Low","scenario":{"version":1,"name":"consensus","enclaves":[{"role":"node","ops":3},{"role":"node","ops":4}]}}`,
			"lockstep",
		},
		"nothing-to-run": {
			`{"mode":"Native","size":"Low"}`,
			"valid scenarios: " + workloads.ValidScenarioList(),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var s Spec
			err := s.UnmarshalJSON([]byte(tc.body))
			if err == nil {
				t.Fatalf("decode of %s succeeded", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestScenarioSpecRejectsSize: a scenario never reads the top-level
// size, so a non-Low size would key the same simulation twice. It is
// refused on both the encode and the decode side.
func TestScenarioSpecRejectsSize(t *testing.T) {
	spec, err := NewScenarioSpec("consensus", 2)
	if err != nil {
		t.Fatal(err)
	}
	low, err := spec.MarshalJSON()
	if err != nil {
		t.Fatalf("encoding the Low spec: %v", err)
	}
	spec.Size = workloads.Medium
	if _, err := spec.Wire(); err == nil || !strings.Contains(err.Error(), "size does not apply") {
		t.Fatalf("Wire of a Medium scenario spec: err = %v", err)
	}
	if _, err := SpecKey(spec); err == nil {
		t.Fatal("SpecKey of a Medium scenario spec succeeded")
	}
	medium := bytes.Replace(low, []byte(`"size":"Low"`), []byte(`"size":"Medium"`), 1)
	if bytes.Equal(medium, low) {
		t.Fatalf("no size field in %s", low)
	}
	var got Spec
	if err := got.UnmarshalJSON(medium); err == nil || !strings.Contains(err.Error(), "size does not apply") {
		t.Fatalf("decode of %s: err = %v", medium, err)
	}
}

// TestScenarioThroughRunnerCache proves scenario specs flow through
// the LRU/result cache with zero special cases: the second RunAll is
// served from cache (same pointer), and the cache holds one entry.
func TestScenarioThroughRunnerCache(t *testing.T) {
	r := NewRunner(testEPC)
	spec := scenarioSpec(t, "consensus", 2, 3)
	first := r.Run(spec)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	again := r.Run(spec)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if first != again {
		t.Fatal("second scenario run was not served from cache")
	}
	if n := r.Cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

// TestScenarioResultShape sanity-checks the consensus outputs the docs
// advertise.
func TestScenarioResultShape(t *testing.T) {
	res, err := runOne(scenarioSpec(t, "consensus", 3, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Extra["nodes"] != 3 {
		t.Fatalf("expected 3 nodes, got %v", res.Output.Extra["nodes"])
	}
	if res.Name != "consensus" || res.Mode != sgx.Native {
		t.Fatalf("result mislabeled: %s / %v", res.Name, res.Mode)
	}
}

// TestScenarioSpecKeyPerRun: spec forms that name the same simulation
// share one key. A left-out cast is the default cast, and a blank role
// is the scenario's role for that slot.
func TestScenarioSpecKeyPerRun(t *testing.T) {
	envelope := func(name string, cast ...scenario.Enclave) Spec {
		return Spec{Scenario: &scenario.Spec{Version: scenario.SchemaVersion, Name: name, Enclaves: cast},
			Mode: sgx.Native, EPCPages: 64, Seed: 1}
	}
	instance := scenario.Enclave{Role: "instance"}
	cases := map[string][2]Spec{
		"interference-default-cast": {
			envelope("interference"),
			envelope("interference", instance, instance, instance, instance),
		},
		"interference-blank-roles": {
			envelope("interference", scenario.Enclave{}, scenario.Enclave{}),
			envelope("interference", instance, instance),
		},
		"consensus-blank-roles": {
			envelope("consensus", scenario.Enclave{Size: workloads.Medium}, scenario.Enclave{Size: workloads.Medium}),
			envelope("consensus", scenario.Enclave{Role: "node", Size: workloads.Medium}, scenario.Enclave{Role: "node", Size: workloads.Medium}),
		},
	}
	for name, pair := range cases {
		t.Run(name, func(t *testing.T) {
			before := *pair[0].Scenario
			k0, err := SpecKey(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			k1, err := SpecKey(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if k0 != k1 {
				t.Errorf("one run under two keys: %s and %s", k0, k1)
			}
			if len(pair[0].Scenario.Enclaves) != len(before.Enclaves) ||
				(len(before.Enclaves) > 0 && pair[0].Scenario.Enclaves[0] != before.Enclaves[0]) {
				t.Errorf("keying rewrote the caller's envelope: %+v, was %+v", *pair[0].Scenario, before)
			}
		})
	}

	// A spec built by NewScenarioSpec is already canonical, so its key
	// is the hash of its own envelope.
	for _, name := range scenario.Names() {
		for _, n := range []int{0, 1, 2, 4, 8} {
			spec, err := NewScenarioSpec(name, n)
			if err != nil {
				t.Fatal(err)
			}
			w, err := spec.Wire()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*w.Scenario, *spec.Scenario) {
				t.Errorf("%s n=%d: Wire rewrote a built envelope %+v to %+v", name, n, *spec.Scenario, *w.Scenario)
			}
		}
	}
}
