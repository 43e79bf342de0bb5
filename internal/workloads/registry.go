package workloads

import (
	"fmt"
	"strings"
	"sync"
)

// Descriptor is one registered benchmark entry: a single-enclave
// workload or a multi-enclave scenario. The registry is the one source
// every valid-name list derives from — wire-codec validation errors,
// /v1/run 400 bodies, CLI help, and the scenario engine all read the
// same table, so an entry registered anywhere is spelled identically
// everywhere (previously the suite, the wire codec and the CLI each
// hand-maintained their own list, which could drift).
type Descriptor struct {
	// Name is the canonical (case-sensitive) registry name: the
	// Table 2 workload name ("BTree") or the scenario name
	// ("consensus").
	Name string
	// Property is the Table 2-style characterization shown by list
	// commands ("Data-intensive", "N attested validators in lockstep
	// rounds"...).
	Property string
	// NativePort reports whether a workload runs in Native mode;
	// meaningless for scenarios (which always simulate Native-mode
	// enclaves).
	NativePort bool
	// Scenario marks a multi-enclave scenario entry. Scenario entries
	// have no New constructor — the scenario engine resolves the name
	// through its own builder table — but share this registry so name
	// validation and listings cover both families.
	Scenario bool
	// New constructs a fresh Workload instance; nil for scenarios.
	New func() Workload
}

var (
	registryMu sync.RWMutex
	// registry holds descriptors in registration order (suite order
	// for workloads, then scenarios), never map order: every listing
	// derived from it must be deterministic. guarded by registryMu
	registry []Descriptor
	// registryIdx indexes registry by name. guarded by registryMu
	registryIdx = make(map[string]int)
)

// Register adds one descriptor to the shared registry. Package init
// functions call it (the suite registers the paper's workloads, the
// scenario package its scenarios); a duplicate or unnamed entry is a
// programming error and panics.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("workloads: Register with empty name")
	}
	if !d.Scenario && d.New == nil {
		panic(fmt.Sprintf("workloads: workload descriptor %q has no constructor", d.Name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registryIdx[d.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", d.Name))
	}
	registryIdx[d.Name] = len(registry)
	registry = append(registry, d)
}

// Lookup resolves a registered name (workload or scenario).
func Lookup(name string) (Descriptor, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	i, ok := registryIdx[name]
	if !ok {
		return Descriptor{}, false
	}
	return registry[i], true
}

// Descriptors returns every registered entry in registration order.
func Descriptors() []Descriptor {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// WorkloadNames lists the registered single-enclave workload names in
// registration order.
func WorkloadNames() []string { return namesWhere(false) }

// ScenarioNames lists the registered multi-enclave scenario names in
// registration order.
func ScenarioNames() []string { return namesWhere(true) }

func namesWhere(scenario bool) []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	var out []string
	for _, d := range registry {
		if d.Scenario == scenario {
			out = append(out, d.Name)
		}
	}
	return out
}

// ValidWorkloadList renders the workload names for validation errors
// ("unknown workload X (valid: ...)").
func ValidWorkloadList() string { return strings.Join(WorkloadNames(), ", ") }

// ValidScenarioList renders the scenario names for validation errors.
func ValidScenarioList() string { return strings.Join(ScenarioNames(), ", ") }
