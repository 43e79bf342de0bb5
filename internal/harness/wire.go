package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/scenario"
	"sgxgauge/internal/workloads/suite"
)

// SpecWire is the JSON-round-trippable form of a Spec: every
// behavior-affecting field except the Hooks, with the workload
// referenced by its suite name instead of an interface value. It is
// the wire schema of the sgxgauged daemon and the canonical encoding
// the result cache keys on.
//
// Encoding is canonical by construction: struct fields serialize in
// declaration order, map-valued knobs serialize with sorted keys
// (encoding/json's documented behavior), and enum fields serialize as
// their paper names ("Native", "Medium"), so equal specs always
// produce equal bytes.
type SpecWire struct {
	Workload       string            `json:"workload,omitempty"`
	Mode           sgx.Mode          `json:"mode"`
	Size           workloads.Size    `json:"size"`
	EPCPages       int               `json:"epc_pages,omitempty"`
	Seed           int64             `json:"seed,omitempty"`
	Switchless     bool              `json:"switchless,omitempty"`
	ProtectedFiles bool              `json:"protected_files,omitempty"`
	Timeline       uint64            `json:"timeline,omitempty"`
	Params         *workloads.Params `json:"params,omitempty"`
	Machine        *sgx.Config       `json:"machine,omitempty"`
	Chaos          *chaos.Config     `json:"chaos,omitempty"`
	// Scenario is the versioned multi-enclave envelope; exactly one of
	// Workload and Scenario is set. Appended after every pre-existing
	// field with omitempty, so legacy single-workload specs encode —
	// and key — byte-identically to before the field existed (the
	// golden-key test pins this).
	Scenario *scenario.Spec `json:"scenario,omitempty"`
}

// Wire extracts the spec's serializable side. It fails when the spec
// names nothing to run (neither workload nor scenario), is ambiguous
// (both), or gives a scenario a size (see checkScenarioSize). A
// scenario envelope is encoded with its resolved cast
// (scenario.Spec.Cast), so a left-out cast or a blank role keys like
// the spelled-out cast it runs as; the caller's envelope is left as it
// was.
func (s Spec) Wire() (SpecWire, error) {
	if s.Workload == nil && s.Scenario == nil {
		return SpecWire{}, fmt.Errorf("harness: spec has no workload or scenario to encode")
	}
	if s.Workload != nil && s.Scenario != nil {
		return SpecWire{}, fmt.Errorf("harness: spec has both a workload (%s) and a scenario (%s)", s.Workload.Name(), s.Scenario.Name)
	}
	sc := s.Scenario
	if sc != nil {
		if err := checkScenarioSize(s.Size); err != nil {
			return SpecWire{}, err
		}
		canon := *sc
		canon.Enclaves = sc.Cast()
		sc = &canon
	}
	var name string
	if s.Workload != nil {
		name = s.Workload.Name()
	}
	return SpecWire{
		Workload:       name,
		Mode:           s.Mode,
		Size:           s.Size,
		EPCPages:       s.EPCPages,
		Seed:           s.Seed,
		Switchless:     s.Switchless,
		ProtectedFiles: s.ProtectedFiles,
		Timeline:       s.Timeline,
		Params:         s.Params,
		Machine:        s.Machine,
		Chaos:          s.Chaos,
		Scenario:       sc,
	}, nil
}

// Spec resolves the wire form back into a runnable Spec. The workload
// name is resolved against the shared registry (including the
// auxiliary Empty and Iozone workloads); scenario envelopes are
// validated strictly (schema version, registered scenario name, cast
// shape). Unknown names yield errors listing the valid ones. Hooks
// are always zero — they do not travel.
func (w SpecWire) Spec() (Spec, error) {
	if w.EPCPages < 0 {
		return Spec{}, fmt.Errorf("harness: epc_pages must not be negative, got %d", w.EPCPages)
	}
	if w.Scenario != nil {
		if w.Workload != "" {
			return Spec{}, fmt.Errorf("harness: wire spec has both a workload (%q) and a scenario (%q)", w.Workload, w.Scenario.Name)
		}
		if w.Mode != sgx.Native {
			return Spec{}, fmt.Errorf("harness: scenario specs run in Native mode, got %v", w.Mode)
		}
		if w.Params != nil || w.ProtectedFiles {
			return Spec{}, fmt.Errorf("harness: params and protected_files do not apply to scenario specs (per-enclave settings live in the scenario envelope)")
		}
		if err := checkScenarioSize(w.Size); err != nil {
			return Spec{}, err
		}
		if err := w.Scenario.Validate(); err != nil {
			return Spec{}, fmt.Errorf("harness: %w", err)
		}
		return Spec{
			Scenario:   w.Scenario,
			Mode:       w.Mode,
			Size:       w.Size,
			EPCPages:   w.EPCPages,
			Seed:       w.Seed,
			Switchless: w.Switchless,
			Timeline:   w.Timeline,
			Machine:    w.Machine,
			Chaos:      w.Chaos,
		}, nil
	}
	if w.Workload == "" {
		return Spec{}, fmt.Errorf("harness: wire spec has no workload or scenario (valid workloads: %s; valid scenarios: %s)",
			validWorkloads(), workloads.ValidScenarioList())
	}
	wl, err := suite.ByName(w.Workload)
	if err != nil {
		return Spec{}, fmt.Errorf("harness: unknown workload %q (valid: %s)", w.Workload, validWorkloads())
	}
	return Spec{
		Workload:       wl,
		Mode:           w.Mode,
		Size:           w.Size,
		EPCPages:       w.EPCPages,
		Seed:           w.Seed,
		Switchless:     w.Switchless,
		ProtectedFiles: w.ProtectedFiles,
		Timeline:       w.Timeline,
		Params:         w.Params,
		Machine:        w.Machine,
		Chaos:          w.Chaos,
	}, nil
}

// checkScenarioSize rejects a non-Low top-level size on a scenario
// spec. A scenario never reads it (each enclave's input lives in the
// envelope), but it is part of the spec key, so a second size would
// name the same simulation under a second key.
func checkScenarioSize(size workloads.Size) error {
	if size != workloads.Low {
		return fmt.Errorf("harness: size does not apply to scenario specs, got %v (per-enclave settings live in the scenario envelope)", size)
	}
	return nil
}

// validWorkloads lists every resolvable workload name, for validation
// errors. Derived from the shared registry, so the list can never
// drift from what ByName actually resolves.
func validWorkloads() string { return workloads.ValidWorkloadList() }

// MarshalJSON encodes the spec's canonical wire form. Hooks are
// dropped (they have no encoding); everything else round-trips.
func (s Spec) MarshalJSON() ([]byte, error) {
	w, err := s.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a wire-form spec. Decoding is strict: unknown
// fields, unknown workload names, and unknown mode or size names are
// all errors that list what would have been valid.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var w SpecWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("harness: decoding spec: %w", err)
	}
	spec, err := w.Spec()
	if err != nil {
		return err
	}
	*s = spec
	return nil
}

// Key is a spec's canonical identity: the SHA-256 digest of its
// canonical JSON encoding. Results are content-addressed by Key in
// the runner's cache and over the daemon's /v1/results endpoint.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the form the daemon's
// /v1/results/{key} endpoint accepts.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return Key{}, fmt.Errorf("harness: malformed result key %q (want %d hex bytes)", s, len(k))
	}
	copy(k[:], b)
	return k, nil
}

// SpecKey returns the spec's canonical key. It fails when the spec
// cannot be canonically encoded (no workload); specs carrying hooks
// encode fine — the hook is simply not part of the identity, which is
// why the runner never serves them from cache.
func SpecKey(spec Spec) (Key, error) {
	enc, err := spec.MarshalJSON()
	if err != nil {
		return Key{}, err
	}
	return sha256.Sum256(enc), nil
}
