package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
)

// TestMain lets runRep re-execute the test binary as a child.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

func noReady(string) error { return nil }

// The same seed must give the same digest, another seed another one,
// and the digest must cover every counter.
func TestDigestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		rep, err := gridChild(vanillaGridSpecs)(childConfig{Seed: seed, Short: true}, noReady)
		if err != nil || rep.Failed != 0 || rep.Digest == "" {
			t.Fatalf("seed %d: %+v, %v", seed, rep, err)
		}
		return rep.Digest
	}
	if a, b := run(1), run(1); a != b {
		t.Errorf("seed 1 digests differ: %s vs %s", a, b)
	}
	if a, b := run(1), run(2); a == b {
		t.Errorf("seeds 1 and 2 share digest %s", a)
	}

	digest := func(res *harness.Result) [32]byte {
		h := sha256.New()
		writeResultDigest(h, "key", res)
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}
	base := &harness.Result{Cycles: 10, StartupCycles: 2}
	moved := *base
	moved.TotalCounters[perf.Events()[perf.NumEvents-1]] = 1
	if digest(base) == digest(&moved) {
		t.Error("digest ignores the last counter")
	}
}

// Every workload runs end to end at tiny scale, untraced and traced,
// in child processes, with every check passing.
func TestSmokeShort(t *testing.T) {
	p := plan{workloads: allWorkloads(), seed: 1, short: true, rounds: 1, trace: true, log: io.Discard}
	results, err := execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range results {
		wo := wr.out(true)
		if !wo.Correct || wo.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", wo.Name, wo.Correct, wo.Attempted, wo.Failed, wo.Errors)
		}
		if len(wr.setups) != setupProbes || len(wr.reps) != 1 || len(wr.traced) != 1 {
			t.Errorf("%s: %d setups, %d reps, %d traced reps", wo.Name, len(wr.setups), len(wr.reps), len(wr.traced))
		}
		for _, name := range []string{"setup_s", "wall_s", "cpu_s", "alloc_mb", "peak_rss_mb", "sim_maccess_per_s"} {
			if s := wo.EndToEnd[name]; s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want > 0", wo.Name, name, s)
			}
		}
		if len(wo.PerLayer) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics, want %d", wo.Name, len(wo.PerLayer), len(perLayer()))
		}
		for _, name := range []string{"sgx.accesses", "trace.cpu_s", "tlb.lookup_ns", "libos.start_ms"} {
			if wo.PerLayer[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wo.Name, name, wo.PerLayer[name])
			}
		}
		line := newResultLine(wo, true)
		if len(line.Metrics) != len(perLayer()) {
			t.Errorf("%s: traced result line has %d metrics", wo.Name, len(line.Metrics))
		}
	}
}

// BENCHMARK.json at the repository root must describe exactly the
// catalogue this package measures.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Command) != 2 || b.Command[0] != "bash" || b.Command[1] != "bench/run.sh" ||
		len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(e entry) {
		if !nameRe.MatchString(e.Name) || seen[e.Name] {
			t.Errorf("bad or repeated name %q", e.Name)
		}
		seen[e.Name] = true
	}
	ws := allWorkloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		check(b.Workloads[i])
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			e := got[i]
			check(e)
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || !unitRe.MatchString(e.Unit) ||
				(e.Better != "lower" && e.Better != "higher") || (e.Bound != nil) != bounded {
				t.Errorf("%s %d = %+v, want %+v", kind, i, e, m)
				continue
			}
			if bounded && (*e.Bound != m.bound || m.bound <= 0 || m.bound > 0.25) {
				t.Errorf("%s: bound %v, want %v in (0, 0.25]", m.name, *e.Bound, m.bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer(), false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 || b.EndToEnd[0].Name != "setup_s" {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
}

// The recorded digests cover every workload.
func TestRecordedDigests(t *testing.T) {
	var d map[string]string
	if err := json.Unmarshal(recordedDigests, &d); err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads() {
		if len(d[w.name]) != 64 {
			t.Errorf("no recorded digest for %s", w.name)
		}
	}
}
