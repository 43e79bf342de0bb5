package harness

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

func TestMultiEnclaveInterference(t *testing.T) {
	r := NewRunner(testEPC)
	points, err := r.MultiEnclave([]int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	// One or two instances fit (35% each): minimal eviction traffic.
	if points[0].EPCEvictions > 100 {
		t.Errorf("single small enclave evicted %d pages", points[0].EPCEvictions)
	}
	// Eight instances (280% of EPC combined) must thrash hard even
	// though each is individually small — the §3.2.1 observation.
	last := points[len(points)-1]
	if last.EPCEvictions < 50*max64(points[0].EPCEvictions, 1) {
		t.Errorf("8 enclaves evicted only %d pages (1 enclave: %d)", last.EPCEvictions, points[0].EPCEvictions)
	}
	// Per-instance time degrades as instances are added.
	if last.CyclesPerInstance < 2*points[0].CyclesPerInstance {
		t.Errorf("per-instance time %d vs solo %d: no interference visible",
			last.CyclesPerInstance, points[0].CyclesPerInstance)
	}
	// Monotone combined footprint.
	for i := 1; i < len(points); i++ {
		if points[i].CombinedFootprint <= points[i-1].CombinedFootprint {
			t.Error("combined footprint not increasing")
		}
	}
	out := RenderMultiEnclave(points, testEPC)
	if !strings.Contains(out, "Enclaves") {
		t.Error("render malformed")
	}
}

func TestMultiEnclaveRejectsZero(t *testing.T) {
	r := NewRunner(testEPC)
	if _, err := r.MultiEnclave([]int{0}); err == nil {
		t.Error("zero enclaves accepted")
	}
}

func TestMultiEnclaveDeterministic(t *testing.T) {
	r := NewRunner(testEPC)
	a, err := r.MultiEnclave([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.MultiEnclave([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Error("multi-enclave run not deterministic")
	}
}

// TestMultiEnclaveHoldsWorkerSlots checks that the sweep's points,
// which are local simulations, take the Runner's worker slots like
// RunAll's specs: with every slot held elsewhere no point starts, and
// once the slots free up, the points and a concurrent batch together
// never have more than Jobs slots busy.
func TestMultiEnclaveHoldsWorkerSlots(t *testing.T) {
	r := NewRunner(testEPC)
	r.Jobs = 1
	r.init()
	ctx := context.Background()
	r.acquire(ctx) // another batch's spec holds the only slot
	done := make(chan error, 1)
	go func() {
		_, err := r.MultiEnclave([]int{1, 2, 4})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("MultiEnclave ran while every worker slot was held (err %v)", err)
	case <-time.After(300 * time.Millisecond):
	}
	r.release()

	batch := make(chan error, 1)
	go func() {
		_, err := r.RunAll(GridSpecs(suite.All()[:3], []sgx.Mode{sgx.Vanilla}, []workloads.Size{workloads.Low}))
		batch <- err
	}()
	for pending := 2; pending > 0; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			pending--
		case err := <-batch:
			if err != nil {
				t.Fatal(err)
			}
			pending--
		default:
			if busy := r.Stats().Busy; busy > int64(r.Jobs) {
				t.Fatalf("%d worker slots busy, Jobs %d", busy, r.Jobs)
			}
			runtime.Gosched()
		}
	}
}
