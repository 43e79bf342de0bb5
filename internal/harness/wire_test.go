package harness

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// TestSpecJSONRoundTrip: Spec -> JSON -> Spec must be identical for
// every serializable field, and re-encoding must reproduce the exact
// bytes (the canonical-encoding property the cache key rests on).
func TestSpecJSONRoundTrip(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Workload: w, Mode: sgx.Native, Size: workloads.Medium},
		{
			Workload:       w,
			Mode:           sgx.LibOS,
			Size:           workloads.High,
			EPCPages:       1024,
			Seed:           42,
			Switchless:     true,
			ProtectedFiles: true,
			Timeline:       7,
			Params: &workloads.Params{
				Size:    workloads.Low,
				Threads: 2,
				Knobs:   map[string]int64{"ops": 500, "keys": 100},
			},
			Machine: &sgx.Config{EPCPages: 1024, TLBEntries: 64, Switchless: true},
			Chaos:   &chaos.Config{Seed: 9, Rate: 0.01, AEXStorm: true},
		},
	}
	for i, spec := range specs {
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("spec %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("spec %d: round trip drifted:\n  in:  %+v\n  out: %+v", i, spec, back)
		}
		re, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("spec %d: re-marshal: %v", i, err)
		}
		if string(enc) != string(re) {
			t.Errorf("spec %d: encoding not canonical:\n  first:  %s\n  second: %s", i, enc, re)
		}
	}
}

// TestSpecJSONEnumNames: enums travel as paper names, not integers.
func TestSpecJSONEnumNames(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.High})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload":"BTree"`, `"mode":"LibOS"`, `"size":"High"`} {
		if !strings.Contains(string(enc), want) {
			t.Errorf("encoding %s lacks %s", enc, want)
		}
	}
}

// TestSpecJSONValidation: unknown workloads, modes, sizes and fields
// are rejected with errors that list the valid names.
func TestSpecJSONValidation(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"workload", `{"workload":"NoSuch","mode":"Native","size":"Low"}`, "valid: "},
		{"mode", `{"workload":"BTree","mode":"Turbo","size":"Low"}`, "Vanilla, Native, LibOS"},
		{"size", `{"workload":"BTree","mode":"Native","size":"Huge"}`, "Low, Medium, High"},
		{"field", `{"workload":"BTree","mode":"Native","size":"Low","bogus":1}`, "bogus"},
		{"missing", `{"mode":"Native","size":"Low"}`, "no workload"},
		{"epc", `{"workload":"BTree","mode":"Native","size":"Low","epc_pages":-5}`, "epc_pages"},
		// Machine options that no longer exist are rejected, not
		// silently dropped from the run.
		{"l1", `{"workload":"BTree","mode":"Native","size":"Low","machine":{"l1_bytes":4096}}`, "l1_bytes"},
		{"tree-levels", `{"workload":"BTree","mode":"Native","size":"Low","machine":{"integrity_tree":true,"tree_cached_levels":2}}`, "tree_cached_levels"},
	}
	for _, c := range cases {
		var s Spec
		err := json.Unmarshal([]byte(c.in), &s)
		if err == nil {
			t.Errorf("%s: decode of %s succeeded, want error", c.name, c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestKeyHexRoundTrip: Key <-> hex string.
func TestKeyHexRoundTrip(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	k, err := SpecKey(Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Errorf("hex round trip drifted: %v != %v", back, k)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("malformed key parsed")
	}
}

// TestSpecKeyDistinguishesChaos is the regression test for the old
// string cache key, which ignored the Chaos config entirely: two specs
// differing only in fault injection shared one cache slot, so a chaos
// run could be served a clean cached result (and vice versa).
func TestSpecKeyDistinguishesChaos(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	base := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low, EPCPages: testEPC, Seed: 7}
	chaotic := base
	chaotic.Chaos = &chaos.Config{Seed: 11, Rate: 0.01, AEXStorm: true}
	otherRate := base
	otherRate.Chaos = &chaos.Config{Seed: 11, Rate: 0.05, AEXStorm: true}

	kBase, err := SpecKey(base)
	if err != nil {
		t.Fatal(err)
	}
	kChaos, err := SpecKey(chaotic)
	if err != nil {
		t.Fatal(err)
	}
	kOther, err := SpecKey(otherRate)
	if err != nil {
		t.Fatal(err)
	}
	if kBase == kChaos || kChaos == kOther {
		t.Fatal("specs differing only in chaos config share a cache key")
	}

	// End to end: the runner must not serve the clean result for the
	// chaotic spec.
	r := NewRunner(testEPC)
	clean, err := r.Run(base)
	if err != nil || clean.Err != nil {
		t.Fatalf("clean run failed: %v / %v", err, clean.Err)
	}
	res, err := r.Run(chaotic)
	if err != nil {
		t.Fatal(err)
	}
	if res == clean {
		t.Fatal("chaotic spec served the clean spec's cached result")
	}
}

// TestHookedSpecsBypassCache: a spec carrying Hooks must execute every
// time (a function value is not part of the canonical identity, so
// serving it from cache would skip the hook — the other half of the
// old cache-key bug), and its result must not poison the cache for the
// hookless identical spec.
func TestHookedSpecsBypassCache(t *testing.T) {
	w, err := suite.ByName("BTree")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testEPC)
	r.Seed = 7
	var hooked atomic.Int64
	spec := Spec{Workload: w, Mode: sgx.Native, Size: workloads.Low}
	withHook := spec
	withHook.Hooks = Hooks{OnMachine: func(*sgx.Machine) { hooked.Add(1) }}

	for i := 0; i < 2; i++ {
		if _, err := r.Run(withHook); err != nil {
			t.Fatal(err)
		}
	}
	if got := hooked.Load(); got != 2 {
		t.Fatalf("hook ran %d times, want 2 (hooked specs must not be cached)", got)
	}
	if n := r.Cache.Len(); n != 0 {
		t.Fatalf("hooked runs landed in the cache (%d entries)", n)
	}

	// The hookless spec still caches normally afterwards.
	a, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("hookless spec not served from cache")
	}
	if got := hooked.Load(); got != 2 {
		t.Errorf("hookless runs invoked the hook (%d calls)", got)
	}
}
