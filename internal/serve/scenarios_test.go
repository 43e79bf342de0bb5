package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"sgxgauge/internal/workloads/scenario"
)

// TestScenarioList: GET /v1/scenarios enumerates every registered
// scenario with its default cast.
func TestScenarioList(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []scenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(scenario.Names()) {
		t.Fatalf("listed %d scenarios, registry has %d", len(infos), len(scenario.Names()))
	}
	for _, info := range infos {
		if info.Version != scenario.SchemaVersion || len(info.Defaults) == 0 || info.Property == "" {
			t.Fatalf("malformed listing entry: %+v", info)
		}
	}
}

// consensusDoc is a SpecWire scenario document: the consensus
// scenario with an explicit two-node cast.
const consensusDoc = `{"mode":"Native","size":"Low","seed":5,"scenario":{"version":1,"name":"consensus","enclaves":[` +
	`{"role":"node","size":"Medium"},{"role":"node","size":"Medium"}]}}`

// TestScenarioRunEndpoint: a SpecWire scenario document posted to
// /v1/run runs through the same cache/job path as a workload spec —
// the repeat POST is a cache hit with the identical key, and the key
// is addressable via /v1/results.
func TestScenarioRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"mode":"Native","seed":3,"scenario":{"version":1,"name":"interference"}}`
	resp, first := postRun(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run with a scenario: %d", resp.StatusCode)
	}
	if first.Cached || first.Result == nil || first.Result.Name != "interference" {
		t.Fatalf("first run: %+v", first)
	}
	if first.Result.Error != "" {
		t.Fatalf("scenario failed: %s", first.Result.Error)
	}

	resp, again := postRun(t, ts, body)
	if resp.StatusCode != http.StatusOK || !again.Cached || again.Key != first.Key {
		t.Fatalf("repeat run not served from cache: %d %+v", resp.StatusCode, again)
	}

	rr, err := http.Get(ts.URL + "/v1/results/" + first.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s: %d", first.Key, rr.StatusCode)
	}
}

// TestScenarioRunViaGenericEndpoint: a scenario is one SpecWire
// document whichever generic endpoint carries it — run inside a
// /v1/sweep, the same document posted to /v1/run is a cache hit under
// the sweep's key. /v1/scenarios only lists.
func TestScenarioRunViaGenericEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	lines, term := sweepResultLines(t, ts.URL, "["+consensusDoc+"]")
	if term.Event != "done" || len(lines) != 1 {
		t.Fatalf("sweep: %d results, terminal %+v", len(lines), term)
	}
	var swept sweepEvent
	if err := json.Unmarshal([]byte(lines[0]), &swept); err != nil {
		t.Fatal(err)
	}
	resp, run := postRun(t, ts, consensusDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run with scenario envelope: %d", resp.StatusCode)
	}
	if run.Key != swept.Key {
		t.Fatalf("sweep and run keyed differently: %s vs %s", swept.Key, run.Key)
	}
	if !run.Cached {
		t.Fatal("/v1/run missed the cache entry the sweep filled")
	}

	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(`{"name":"consensus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/scenarios: status %d, want 405", resp.StatusCode)
	}
}

// TestScenarioRunRejectsBadRequests: scenario documents that fail
// validation are 400s whose bodies name what would have been valid.
func TestScenarioRunRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]struct {
		body string
		want string
	}{
		"unknown-name": {`{"mode":"Native","scenario":{"version":1,"name":"nope"}}`, "valid: "},
		// A default-cast size is not a SpecWire field: the cast is
		// explicit, so one document names one run.
		"cast-and-n":   {`{"mode":"Native","n":3,"scenario":{"version":1,"name":"consensus"}}`, "unknown field"},
		"bad-cast":     {`{"mode":"Native","scenario":{"version":1,"name":"consensus","enclaves":[{"role":"node"}]}}`, "at least 2 nodes"},
		"missing-name": {`{"mode":"Native","scenario":{"version":1}}`, "valid: "},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("400 body %q does not mention %q", data, tc.want)
			}
		})
	}
}
