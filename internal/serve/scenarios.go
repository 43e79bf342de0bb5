package serve

import (
	"net/http"

	"sgxgauge/internal/workloads/scenario"
)

// This file serves GET /v1/scenarios: the registered multi-enclave
// scenarios with their properties, default casts and schema version.
// A scenario runs as a SpecWire document carrying the versioned
// envelope, posted to /v1/run or /v1/sweep like any workload spec, so
// it is addressable, cacheable and cluster-executable with zero
// special cases.

// scenarioInfo is one GET /v1/scenarios entry.
type scenarioInfo struct {
	Name     string             `json:"name"`
	Property string             `json:"property"`
	Version  int                `json:"version"`
	Defaults []scenario.Enclave `json:"default_enclaves"`
}

func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, name := range scenario.Names() {
		d, _ := scenario.Lookup(name)
		out = append(out, scenarioInfo{
			Name:     d.Name,
			Property: d.Property,
			Version:  scenario.SchemaVersion,
			Defaults: d.Defaults(0),
		})
	}
	writeJSON(w, http.StatusOK, out)
}
