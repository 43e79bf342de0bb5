// Package scenario implements multi-enclave scenarios: N workloads
// running as concurrently simulated enclaves on one machine,
// time-shared by the deterministic sgx.Interleave scheduler. Two ship:
// interference, the co-resident enclaves behind the multi experiment
// (paper §3.2.1), and consensus, validators that quote, verify and
// seal through the internal/attest stack in lockstep rounds.
//
// Scenarios register in the shared workloads registry (marked
// Scenario), so every valid-name list — wire validation, /v1 errors,
// CLI help — covers them without a second table; their builders live
// in this package's own table, keyed by the same names.
package scenario

import (
	"fmt"
	"sync"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// SchemaVersion is the scenario wire envelope's current schema
// version. Specs carrying any other version are rejected at decode
// time, so an old daemon never misinterprets a newer envelope.
const SchemaVersion = 1

// maxEnclaves bounds a scenario's enclave count; beyond this a run
// models nothing the paper's contention analysis covers and only
// burns memory.
const maxEnclaves = 64

// Spec is the wire-visible body of a scenario run: the versioned
// envelope embedded in a harness spec's "scenario" field. Field order
// is the canonical encoding order (see harness.SpecWire).
type Spec struct {
	// Version is the envelope schema version; must be SchemaVersion.
	Version int `json:"version"`
	// Name is the registered scenario name.
	Name string `json:"name"`
	// Enclaves configures each simulated enclave. Empty means the
	// scenario's default cast.
	Enclaves []Enclave `json:"enclaves,omitempty"`
	// Quantum overrides the scheduler's slice length in cycles
	// (0 = default).
	Quantum uint64 `json:"quantum,omitempty"`
}

// Enclave is one co-resident enclave's sub-spec.
type Enclave struct {
	// Role is the scenario-defined part this enclave plays ("node",
	// "instance"); empty means the scenario's default for that slot.
	Role string `json:"role,omitempty"`
	// Size scales the enclave's working set against the EPC, like the
	// Table 1 input settings scale single-enclave workloads.
	Size workloads.Size `json:"size,omitempty"`
	// Ops overrides the enclave's work-unit count (0 = role default).
	Ops int `json:"ops,omitempty"`
}

// Instance is one built scenario, ready to interleave: per-enclave
// environments on the shared machine, their programs, and the
// post-run collector.
type Instance struct {
	// Envs are the per-enclave environments, one per program.
	Envs []*sgx.Env
	// Programs are the enclave bodies, index-aligned with Envs.
	Programs []sgx.Program
	// Quantum is the scheduler slice length (0 = default).
	Quantum uint64
	// Finish runs after every program returned and produces the
	// scenario's functional output.
	Finish func() (workloads.Output, error)
}

// Descriptor is one registered scenario.
type Descriptor struct {
	// Name is the registry name ("consensus", ...).
	Name string
	// Property is the listing characterization.
	Property string
	// Defaults returns the default enclave cast for n enclaves
	// (n <= 0 means the scenario's preferred count).
	Defaults func(n int) []Enclave
	// Validate checks the scenario-specific shape of a spec (enclave
	// count, roles); nil means any cast is accepted.
	Validate func(sp Spec) error
	// Build constructs the scenario on a freshly booted machine.
	Build func(m *sgx.Machine, sp Spec) (*Instance, error)
}

var (
	tableMu sync.RWMutex
	// table holds descriptors in registration order. guarded by tableMu
	table []Descriptor
	// tableIdx indexes table by name. guarded by tableMu
	tableIdx = make(map[string]int)
)

// Register adds a scenario to this package's builder table and to the
// shared workloads registry (as a Scenario entry), so the name shows
// up in every derived listing. Package init calls it; duplicates
// panic.
func Register(d Descriptor) {
	if d.Name == "" || d.Build == nil || d.Defaults == nil {
		panic(fmt.Sprintf("scenario: incomplete descriptor %+v", d))
	}
	workloads.Register(workloads.Descriptor{Name: d.Name, Property: d.Property, Scenario: true})
	tableMu.Lock()
	defer tableMu.Unlock()
	if _, dup := tableIdx[d.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", d.Name))
	}
	tableIdx[d.Name] = len(table)
	table = append(table, d)
}

// Lookup resolves a registered scenario by name.
func Lookup(name string) (Descriptor, bool) {
	tableMu.RLock()
	defer tableMu.RUnlock()
	i, ok := tableIdx[name]
	if !ok {
		return Descriptor{}, false
	}
	return table[i], true
}

// Names lists the registered scenario names in registration order.
func Names() []string {
	tableMu.RLock()
	defer tableMu.RUnlock()
	out := make([]string, len(table))
	for i, d := range table {
		out[i] = d.Name
	}
	return out
}

// Validate checks the envelope: schema version, a registered name
// (unknown names list the valid ones), and a sane enclave count,
// then the scenario's own shape rules.
func (sp Spec) Validate() error {
	if sp.Version != SchemaVersion {
		return fmt.Errorf("scenario: unsupported envelope version %d (this build speaks %d)", sp.Version, SchemaVersion)
	}
	d, ok := Lookup(sp.Name)
	if !ok {
		return fmt.Errorf("scenario: unknown scenario %q (valid: %s)", sp.Name, workloads.ValidScenarioList())
	}
	if len(sp.Enclaves) > maxEnclaves {
		return fmt.Errorf("scenario: %d enclaves exceeds the %d-enclave limit", len(sp.Enclaves), maxEnclaves)
	}
	if d.Validate != nil {
		return d.Validate(sp)
	}
	return nil
}

// Cast resolves the spec's enclave list as the scenario runs it: the
// default cast when the list is empty, and each blank role replaced by
// the default cast's role for that slot. It returns a fresh slice, so
// canonicalizing a spec never rewrites the caller's envelope.
func (sp Spec) Cast() []Enclave {
	d, ok := Lookup(sp.Name)
	if !ok {
		return sp.Enclaves
	}
	if len(sp.Enclaves) == 0 {
		return d.Defaults(0)
	}
	defaults := d.Defaults(len(sp.Enclaves))
	cast := append([]Enclave(nil), sp.Enclaves...)
	for i := range cast {
		if cast[i].Role == "" {
			cast[i].Role = defaults[i].Role
		}
	}
	return cast
}

// New returns a versioned spec for the named scenario with its
// default cast of n enclaves (n <= 0 means the scenario's preferred
// count). Unknown names yield an error listing the valid ones.
func New(name string, n int) (Spec, error) {
	d, ok := Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (valid: %s)", name, workloads.ValidScenarioList())
	}
	return Spec{Version: SchemaVersion, Name: name, Enclaves: d.Defaults(n)}, nil
}

// pageSize mirrors mem.PageSize without importing it everywhere.
const pageSize = 4096
