package harness

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// TestResultWireRoundTrip: a real run's Result survives
// Encode/Decode bit-for-bit — every counter, op-stat and output
// field — so a result served from the persistent store or shipped
// back by a cluster worker is indistinguishable from a fresh run.
func TestResultWireRoundTrip(t *testing.T) {
	r := NewRunner(256)
	r.Seed = 7
	for _, mode := range []sgx.Mode{sgx.Vanilla, sgx.LibOS} {
		res := r.Run(Spec{Workload: suite.Empty(), Mode: mode, Size: workloads.Low, Timeline: 64})
		if res.Err != nil {
			t.Fatalf("%v run: %v", mode, res.Err)
		}
		data, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%v encode: %v", mode, err)
		}
		back, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("%v decode: %v", mode, err)
		}
		if want := scrubEmpty(res); !reflect.DeepEqual(want, back) {
			t.Errorf("%v: decoded result differs:\n got %#v\nwant %#v", mode, back, want)
		}
		// Canonical: re-encoding the decoded result reproduces the bytes.
		again, err := EncodeResult(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%v: re-encoding is not canonical:\n %s\n %s", mode, data, again)
		}
	}
}

// scrubEmpty maps empty collections to nil, the canonical form the
// wire encoding preserves (absence and emptiness are equivalent).
func scrubEmpty(r *Result) *Result {
	c := *r
	if len(c.Params.Knobs) == 0 {
		c.Params.Knobs = nil
	}
	if len(c.Output.Extra) == 0 {
		c.Output.Extra = nil
	}
	if len(c.Timeline) == 0 {
		c.Timeline = nil
	}
	if len(c.OpStats) == 0 {
		c.OpStats = nil
	}
	return &c
}

// TestResultWireError: a failed result's error flattens to its
// message and comes back as a plain error.
func TestResultWireError(t *testing.T) {
	res := &Result{Name: "X", Mode: sgx.Native, Err: errors.New("boom"), Attempts: 2}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != "boom" {
		t.Fatalf("decoded error = %v, want boom", back.Err)
	}
	if back.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", back.Attempts)
	}
}

// TestDecodeResultRejectsForeign: entries naming counters, operations
// or fields this build does not define are decode errors (the store
// quarantines them), never silently misfiled data.
func TestDecodeResultRejectsForeign(t *testing.T) {
	cases := []struct{ name, data string }{
		{"unknown-field", `{"name":"X","mode":"Native","params":{"size":"Low"},"cycles":1,"output":{},"attempts":1,"bogus":1}`},
		{"unknown-counter", `{"name":"X","mode":"Native","params":{"size":"Low"},"cycles":1,"counters":{"no-such-event":3},"output":{},"attempts":1}`},
		{"unknown-op", `{"name":"X","mode":"Native","params":{"size":"Low"},"cycles":1,"output":{},"op_stats":{"sgx_frobnicate":{}},"attempts":1}`},
		{"not-json", `{"name":`},
	}
	for _, c := range cases {
		if _, err := DecodeResult([]byte(c.data)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}
