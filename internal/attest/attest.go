// Package attest models a DCAP-style remote-attestation stack on the
// simulated SGX machine: MRENCLAVE-like measurements, quote
// generation and verification, and platform-bound sealing.
//
// Everything is deterministic — measurements are the EEXTEND chain the
// machine accumulated while loading the enclave, platform keys derive
// from the machine seed, and every operation charges simulated cycles
// through the machine's cost model — so the consensus scenario's
// quotes and seals are exactly as reproducible as a plain workload
// run. The shape follows the Gramine attestor / DCAP verifier split of
// the go-ethereum SGX stack the ROADMAP names: an in-enclave report
// (EREPORT), a quoting step signing it with a platform key, and an
// out-of-enclave verifier checking the signature and the expected
// measurement.
package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"sgxgauge/internal/enclave"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/sgx"
)

// Measurement is an MRENCLAVE-like identity: the SHA-256 of what was
// loaded into the enclave.
type Measurement [32]byte

// String renders the measurement as lowercase hex.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// MeasureEnclave returns a built enclave's launch measurement (the
// EEXTEND chain the machine accumulated while loading it), in
// attestation form.
func MeasureEnclave(enc *enclave.Enclave) Measurement { return Measurement(enc.Measurement) }

// Quote is a remote-attestation quote: a report (measurement + report
// data) signed by the platform's quoting key. ReportData carries the
// attester's channel-binding payload — typically a hash of its
// ephemeral session public key — exactly like the 64-byte REPORTDATA
// field real quotes embed (truncated to 32 here).
type Quote struct {
	Measurement Measurement
	ReportData  [32]byte
	Signature   [32]byte
}

// Verification errors. ErrQuoteSignature means the quote was not
// produced by this platform (or was bit-tampered in flight);
// ErrMeasurementMismatch means it was, but over different enclave
// contents than the verifier expects.
var (
	ErrQuoteSignature      = errors.New("attest: quote signature invalid")
	ErrMeasurementMismatch = errors.New("attest: measurement mismatch")
)

// Cycle-cost factors, in units of the machine cost model's Compute
// cost. The magnitudes mirror the real stack's ordering: producing a
// report (EREPORT, a MAC over ~400 bytes) is cheap, signing a quote
// (ECDSA over the report) is ~an order costlier, and verifying one
// (certificate chain plus two signature checks, the DCAP verifier's
// job) costs about twice a sign.
const (
	reportFactor = 256
	signFactor   = 2048
	verifyFactor = 4096
	// sealBytesPerCycle divides the sealed-blob length to model
	// AES-GCM-style sealing throughput (~0.5 cycles/byte with AES-NI,
	// matching the protected-file-system constant).
	sealBytesPerCycle = 2
)

// Platform is one machine's attestation root: the quoting key the
// (simulated) quoting enclave signs with and the sealing engine bound
// to the platform. Both derive from the machine seed, so equal seeds
// attest identically.
type Platform struct {
	quoteKey [32]byte
	seal     *mee.Engine
}

// NewPlatform derives the attestation root for a machine. Call it
// with m.Config().Seed so the platform is bound to the booted machine.
func NewPlatform(seed uint64) *Platform {
	p := &Platform{seal: mee.New(seed ^ 0x61747465737421)} // "attest!"
	// The quoting key hashes the seed, then the label framed by its
	// 4-byte length.
	const label = "sgxgauge-attest-qe"
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(label)))
	p.quoteKey = sha256.Sum256(append(b[:], label...))
	return p
}

// signature computes the quote MAC standing in for the ECDSA
// signature of the real quoting enclave.
func (p *Platform) signature(meas Measurement, reportData [32]byte) [32]byte {
	mac := hmac.New(sha256.New, p.quoteKey[:])
	mac.Write(meas[:])
	mac.Write(reportData[:])
	var sig [32]byte
	copy(sig[:], mac.Sum(nil))
	return sig
}

// Quote produces a quote over the measurement and report data,
// charging the thread for the EREPORT and the quoting enclave's
// signing work (plus the ECALL round trip into the QE).
func (p *Platform) Quote(t *sgx.Thread, meas Measurement, reportData [32]byte) Quote {
	c := &t.Env().M.Costs
	t.Compute(c.Compute*(reportFactor+signFactor) + c.ECallEnter + c.ECallExit)
	return Quote{Measurement: meas, ReportData: reportData, Signature: p.signature(meas, reportData)}
}

// Verify checks the quote's platform signature, charging the DCAP
// verifier's certificate-and-signature work. It does not judge the
// measurement — callers compare against their expected Measurement
// (see VerifyExpected), mirroring the verifier/policy split.
func (p *Platform) Verify(t *sgx.Thread, q Quote) error {
	c := &t.Env().M.Costs
	t.Compute(c.Compute * verifyFactor)
	want := p.signature(q.Measurement, q.ReportData)
	if !hmac.Equal(want[:], q.Signature[:]) {
		return ErrQuoteSignature
	}
	return nil
}

// VerifyExpected is Verify plus the policy check: the quoted
// measurement must equal the one the verifier expects. A valid
// signature over another enclave's measurement fails here.
func (p *Platform) VerifyExpected(t *sgx.Thread, q Quote, want Measurement) error {
	if err := p.Verify(t, q); err != nil {
		return err
	}
	if q.Measurement != want {
		return fmt.Errorf("%w: quoted %s, expected %s", ErrMeasurementMismatch, q.Measurement, want)
	}
	return nil
}

// SealTo seals data to an enclave identity on this platform, charging
// the sealing crypto. Only UnsealAt with the same enclave identity
// and context — on the same platform — recovers it; any bit flip in
// the sealed blob is detected.
func (p *Platform) SealTo(t *sgx.Thread, enclaveID uint32, context uint64, data []byte) []byte {
	sealed := p.seal.Seal(nil, enclaveID, context, data)
	t.Compute(uint64(len(sealed)) / sealBytesPerCycle)
	return sealed
}

// UnsealAt reverses SealTo inside the target enclave.
func (p *Platform) UnsealAt(t *sgx.Thread, enclaveID uint32, context uint64, sealed []byte) ([]byte, error) {
	t.Compute(uint64(len(sealed)) / sealBytesPerCycle)
	return p.seal.Unseal(nil, enclaveID, context, sealed)
}
