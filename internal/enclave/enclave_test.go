package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"sgxgauge/internal/mem"
)

func TestAddressRange(t *testing.T) {
	e := New(1, 0x7000_0000_0000, 16)
	if e.Limit() != 0x7000_0000_0000+16*mem.PageSize {
		t.Errorf("Limit = %#x", e.Limit())
	}
	if !e.Contains(e.Base) || !e.Contains(e.Limit()-1) {
		t.Error("range excludes its own pages")
	}
	if e.Contains(e.Base-1) || e.Contains(e.Limit()) {
		t.Error("range includes foreign addresses")
	}
}

func TestPageID(t *testing.T) {
	e := New(7, 0x7000_0000_0000, 16)
	id := e.PageID(e.Base + 5000)
	if id.Enclave != 7 {
		t.Errorf("owner = %d", id.Enclave)
	}
	if id.VPN != (e.Base+5000)>>12 {
		t.Errorf("vpn = %#x", id.VPN)
	}
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with size 0 did not panic")
		}
	}()
	New(1, 0, 0)
}

func TestHeapAllocation(t *testing.T) {
	e := New(1, 0x1000_0000, 4)
	a, err := e.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != e.Base {
		t.Errorf("first alloc at %#x, want base %#x", a, e.Base)
	}
	b, err := e.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b%64 != 0 {
		t.Errorf("alloc not aligned: %#x", b)
	}
	if b < a+100 {
		t.Error("allocations overlap")
	}
	if e.HeapUsed() == 0 {
		t.Error("HeapUsed = 0")
	}
}

func TestHeapExhaustion(t *testing.T) {
	e := New(1, 0x1000_0000, 2)
	if _, err := e.Alloc(3*mem.PageSize, 0); err != ErrOutOfMemory {
		t.Errorf("oversized alloc: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := e.Alloc(2*mem.PageSize, 0); err != nil {
		t.Errorf("exact-fit alloc failed: %v", err)
	}
	if _, err := e.Alloc(1, 0); err != ErrOutOfMemory {
		t.Errorf("post-exhaustion alloc: err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocBadAlignment(t *testing.T) {
	e := New(1, 0x1000_0000, 4)
	if _, err := e.Alloc(8, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	build := func(poison bool) [32]byte {
		e := New(1, 0, 4)
		for vpn := uint64(0); vpn < 4; vpn++ {
			var f mem.Frame
			f.Data[0] = byte(vpn)
			if poison && vpn == 2 {
				f.Data[100] = 0xFF
			}
			e.ExtendMeasurement(vpn, &f)
		}
		e.FinishLaunch()
		return e.Measurement
	}
	a, b := build(false), build(false)
	if a != b {
		t.Fatal("measurement is not deterministic")
	}
	if c := build(true); c == a {
		t.Fatal("measurement ignores page content (tampered binary would pass)")
	}
}

func TestMeasurementOrderSensitive(t *testing.T) {
	var f mem.Frame
	e1 := New(1, 0, 4)
	e1.ExtendMeasurement(0, &f)
	e1.ExtendMeasurement(1, &f)
	e1.FinishLaunch()
	e2 := New(1, 0, 4)
	e2.ExtendMeasurement(1, &f)
	e2.ExtendMeasurement(0, &f)
	e2.FinishLaunch()
	if e1.Measurement == e2.Measurement {
		t.Error("measurement ignores page order")
	}
}

func TestDoubleFinishLaunchPanics(t *testing.T) {
	e := New(1, 0, 4)
	e.FinishLaunch()
	if !e.Launched() {
		t.Error("Launched() false after FinishLaunch")
	}
	defer func() {
		if recover() == nil {
			t.Error("double FinishLaunch did not panic")
		}
	}()
	e.FinishLaunch()
}

func TestExtendAfterFinishLaunchPanics(t *testing.T) {
	e := New(1, 0, 4)
	var f mem.Frame
	e.ExtendMeasurement(0, &f)
	e.FinishLaunch()
	want := e.Measurement
	defer func() {
		if recover() == nil {
			t.Error("ExtendMeasurement after FinishLaunch did not panic")
		}
		if e.Measurement != want {
			t.Error("late ExtendMeasurement changed the sealed measurement")
		}
	}()
	e.ExtendMeasurement(1, &f)
}

func TestExtendMeasurementDoesNotAllocate(t *testing.T) {
	e := New(1, 0, 4)
	var f mem.Frame
	e.ExtendMeasurement(0, &f) // first call creates the reused digest
	vpn := uint64(1)
	if n := testing.AllocsPerRun(100, func() {
		e.ExtendMeasurement(vpn, &f)
		vpn++
	}); n != 0 {
		t.Errorf("ExtendMeasurement allocates %v times per page, want 0", n)
	}
}

// TestMeasurementChain pins the EEXTEND chain: SHA-256 over the prior
// state, the little-endian VPN and the page bytes.
func TestMeasurementChain(t *testing.T) {
	var f mem.Frame
	f.Data[7] = 0x5a
	e := New(1, 0, 4)
	e.ExtendMeasurement(3, &f)
	e.ExtendMeasurement(9, &f)
	e.FinishLaunch()

	want := sha256.Sum256([]byte("sgxgauge-enclave-init"))
	for _, vpn := range []uint64{3, 9} {
		buf := append([]byte(nil), want[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, vpn)
		buf = append(buf, f.Data[:]...)
		want = sha256.Sum256(buf)
	}
	if e.Measurement != want {
		t.Errorf("measurement = %x, want %x", e.Measurement, want)
	}
}

func TestCloneLaunchedOnly(t *testing.T) {
	e := New(1, 0, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Clone of an unlaunched enclave did not panic")
			}
		}()
		e.Clone()
	}()
	e.FinishLaunch()
	if _, err := e.Alloc(64, 0); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if c.Measurement != e.Measurement || c.HeapUsed() != e.HeapUsed() {
		t.Fatal("clone differs from its source")
	}
	if _, err := c.Alloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if c.HeapUsed() == e.HeapUsed() {
		t.Error("clone shares its heap cursor with the source")
	}
}
