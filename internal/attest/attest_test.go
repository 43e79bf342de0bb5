package attest

import (
	"bytes"
	"errors"
	"testing"

	"sgxgauge/internal/mee"
	"sgxgauge/internal/sgx"
)

func testEnv(t *testing.T) (*sgx.Machine, *sgx.Env) {
	t.Helper()
	m := sgx.NewMachine(sgx.Config{EPCPages: 128, Seed: 9})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 32); err != nil {
		t.Fatalf("launch: %v", err)
	}
	return m, env
}

func TestQuoteRoundTripAndTamperRejection(t *testing.T) {
	m, env := testEnv(t)
	p := NewPlatform(m.Config().Seed)
	tr := env.Main

	meas := MeasureEnclave(env.Enclave)
	var rd [32]byte
	rd[0] = 0xaa
	before := tr.Clock.Cycles()
	q := p.Quote(tr, meas, rd)
	if tr.Clock.Cycles() == before {
		t.Fatal("quote generation charged no cycles")
	}
	if err := p.VerifyExpected(tr, q, meas); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}

	// A quote from another enclave (one more page loaded) carries a
	// valid signature but the wrong measurement: the policy check must
	// reject it.
	other := m.NewEnv(sgx.Native)
	if _, err := other.LaunchEnclave(3, 32); err != nil {
		t.Fatalf("launch: %v", err)
	}
	qt := p.Quote(tr, MeasureEnclave(other.Enclave), rd)
	if err := p.VerifyExpected(tr, qt, meas); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("other-enclave quote: got %v, want ErrMeasurementMismatch", err)
	}

	// A bit-flipped signature must fail the signature check.
	qf := q
	qf.Signature[3] ^= 0x40
	if err := p.Verify(tr, qf); !errors.Is(err, ErrQuoteSignature) {
		t.Fatalf("forged signature: got %v, want ErrQuoteSignature", err)
	}

	// A different platform (different machine seed) cannot verify
	// this platform's quotes.
	foreign := NewPlatform(m.Config().Seed + 1)
	if err := foreign.Verify(tr, q); !errors.Is(err, ErrQuoteSignature) {
		t.Fatalf("cross-platform quote: got %v, want ErrQuoteSignature", err)
	}
}

func TestEnclaveMeasurementQuote(t *testing.T) {
	m, env := testEnv(t)
	p := NewPlatform(m.Config().Seed)
	tr := env.Main
	meas := MeasureEnclave(env.Enclave)
	if meas == (Measurement{}) {
		t.Fatal("built enclave has zero measurement")
	}
	q := p.Quote(tr, meas, [32]byte{})
	if err := p.VerifyExpected(tr, q, meas); err != nil {
		t.Fatalf("enclave-measurement quote rejected: %v", err)
	}
}

func TestSealedExchangeRoundTripAndTamper(t *testing.T) {
	m, env := testEnv(t)
	p := NewPlatform(m.Config().Seed)
	tr := env.Main
	const clientID, serverID = 7, 11

	secret := []byte("chain state sealed to the server")
	sealed := p.SealTo(tr, serverID, 1, secret)
	got, err := p.UnsealAt(tr, serverID, 1, sealed)
	if err != nil {
		t.Fatalf("unseal: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("sealed exchange did not round-trip the secret")
	}

	// The chaos injector's MemTamper vectors against sealed pages are
	// bit flips, MAC corruption and truncation; the sealed secret
	// must reject each shape.
	for name, corrupt := range map[string]func([]byte) []byte{
		"bit-flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"mac-zero":  func(b []byte) []byte { copy(b[len(b)-32:], make([]byte, 32)); return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			blob := corrupt(append([]byte(nil), sealed...))
			if _, err := p.UnsealAt(tr, serverID, 1, blob); !errors.Is(err, mee.ErrMACMismatch) {
				t.Fatalf("%s sealed blob: got %v, want ErrMACMismatch", name, err)
			}
		})
	}

	// Wrong target enclave or wrong context must not unseal.
	if _, err := p.UnsealAt(tr, clientID, 1, sealed); err == nil {
		t.Fatal("unseal under the wrong enclave identity succeeded")
	}
	if _, err := p.UnsealAt(tr, serverID, 2, sealed); err == nil {
		t.Fatal("unseal under the wrong context succeeded")
	}
}
