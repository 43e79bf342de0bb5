package workloads

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSizeString(t *testing.T) {
	if Low.String() != "Low" || Medium.String() != "Medium" || High.String() != "High" {
		t.Error("size names wrong")
	}
	if Size(9).String() != "Size(9)" {
		t.Error("unknown size name wrong")
	}
	if len(Sizes()) != 3 {
		t.Error("Sizes() wrong length")
	}
}

func TestKnobMissingListsAvailable(t *testing.T) {
	p := Params{Knobs: map[string]int64{"alpha": 1, "beta": 2}}
	if v, err := p.Knob("alpha"); err != nil || v != 1 {
		t.Errorf("Knob(alpha) = %d, %v", v, err)
	}
	_, err := p.Knob("gamma")
	if err == nil {
		t.Fatal("missing knob did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"gamma"`) ||
		!strings.Contains(msg, "alpha, beta") {
		t.Errorf("error %q does not name the missing knob and list the available ones", msg)
	}
}

func TestMustKnobPanicsWhenMissing(t *testing.T) {
	p := Params{Knobs: map[string]int64{"a": 1}}
	if p.MustKnob("a") != 1 {
		t.Error("Knob lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("missing knob did not panic")
		}
	}()
	p.MustKnob("b")
}

func TestWithKnobCopies(t *testing.T) {
	p := Params{Size: Medium, Threads: 4, Knobs: map[string]int64{"a": 1}}
	q := p.WithKnob("a", 2)
	if q.MustKnob("a") != 2 || p.MustKnob("a") != 1 {
		t.Error("WithKnob mutated the original")
	}
	if q.Size != Medium || q.Threads != 4 {
		t.Error("WithKnob dropped fields")
	}
	r := p.WithKnob("b", 9)
	if r.MustKnob("b") != 9 || r.MustKnob("a") != 1 {
		t.Error("WithKnob add failed")
	}
}

func TestPagesForRatio(t *testing.T) {
	if PagesForRatio(100, 0.5) != 50 {
		t.Error("PagesForRatio(100, 0.5)")
	}
	if PagesForRatio(100, 0.001) != 1 {
		t.Error("tiny ratio must clamp to 1 page")
	}
	if BytesForRatio(100, 1.0) != 100*4096 {
		t.Error("BytesForRatio")
	}
}

func TestNativeEnclaveSize(t *testing.T) {
	got := NativeEnclaveSize(100)
	if got <= 100+NativeImagePages {
		t.Errorf("NativeEnclaveSize(100) = %d, must include slack", got)
	}
}

func TestMix64Properties(t *testing.T) {
	// Injective-ish: no collisions across a contiguous range.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
	// Deterministic.
	f := func(x uint64) bool { return Mix64(x) == Mix64(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Avalanche: flipping one input bit flips many output bits.
	diff := Mix64(0) ^ Mix64(1)
	bits := 0
	for ; diff != 0; diff &= diff - 1 {
		bits++
	}
	if bits < 16 {
		t.Errorf("Mix64(0)^Mix64(1) differs in only %d bits", bits)
	}
}

func TestFoldChecksumOrderDependent(t *testing.T) {
	a := FoldChecksum(FoldChecksum(0, 1), 2)
	b := FoldChecksum(FoldChecksum(0, 2), 1)
	if a == b {
		t.Error("FoldChecksum is order-independent; reordering bugs would go unnoticed")
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]Size{
		"Low": Low, "low": Low,
		"Medium": Medium, "medium": Medium,
		"High": High, "high": High,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSize("XL"); err == nil {
		t.Error("unknown size accepted")
	}
}
