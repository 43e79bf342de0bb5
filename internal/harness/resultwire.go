package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"sgxgauge/internal/epc"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// ResultWire is the JSON-round-trippable form of a Result: the full
// measurement — every counter bank, the timeline, the per-operation
// latency stats — with nothing summarized away. It is the storage
// schema of the persistent result store (internal/store) and the
// format workers use to ship results back to a sweep coordinator, so
// a result decoded from either source must be indistinguishable from
// one the local engine just produced.
//
// Encoding is canonical by construction, like SpecWire: struct fields
// serialize in declaration order, counter banks serialize as
// name-keyed maps with sorted keys (encoding/json's documented map
// behavior), and enums serialize as their paper names. Counter and
// operation *names* — not ordinal positions — are the schema, so an
// entry written before a counter was added (or reordered) still
// decodes, while an entry naming an event this build has never heard
// of is rejected rather than silently misfiled.
type ResultWire struct {
	Name   string           `json:"name"`
	Mode   sgx.Mode         `json:"mode"`
	Params workloads.Params `json:"params"`

	Cycles        uint64            `json:"cycles"`
	Counters      map[string]uint64 `json:"counters,omitempty"`
	TotalCounters map[string]uint64 `json:"total_counters,omitempty"`
	Output        workloads.Output  `json:"output"`

	StartupCycles   uint64                 `json:"startup_cycles,omitempty"`
	StartupCounters map[string]uint64      `json:"startup_counters,omitempty"`
	Timeline        []epc.TimelineEvent    `json:"timeline,omitempty"`
	OpStats         map[string]epc.OpStats `json:"op_stats,omitempty"`

	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts"`
}

// Wire extracts the result's serializable form. Two equivalences are
// canonicalized rather than preserved: Err flattens to its message
// (a decoded failure compares equal by text but not by errors.Is
// identity — which is why the persistent store only ever holds
// Err == nil results), and empty collections decode as nil (absence
// and emptiness mean the same thing everywhere a Result is read).
func (r *Result) Wire() ResultWire {
	return ResultWire{
		Name:            r.Name,
		Mode:            r.Mode,
		Params:          r.Params,
		Cycles:          r.Cycles,
		Counters:        snapshotWire(r.Counters),
		TotalCounters:   snapshotWire(r.TotalCounters),
		Output:          r.Output,
		StartupCycles:   r.StartupCycles,
		StartupCounters: snapshotWire(r.StartupCounters),
		Timeline:        r.Timeline,
		OpStats:         opStatsWire(r.OpStats),
		Error:           errString(r.Err),
		Attempts:        r.Attempts,
	}
}

// Result resolves the wire form back into a Result. Unknown counter
// or operation names are errors: an entry from a different schema
// must be rejected (and quarantined by the store), not decoded into
// the wrong counter.
func (w ResultWire) Result() (*Result, error) {
	counters, err := snapshotFromWire(w.Counters)
	if err != nil {
		return nil, err
	}
	total, err := snapshotFromWire(w.TotalCounters)
	if err != nil {
		return nil, err
	}
	startup, err := snapshotFromWire(w.StartupCounters)
	if err != nil {
		return nil, err
	}
	opStats, err := opStatsFromWire(w.OpStats)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:            w.Name,
		Mode:            w.Mode,
		Params:          w.Params,
		Cycles:          w.Cycles,
		Counters:        counters,
		TotalCounters:   total,
		Output:          w.Output,
		StartupCycles:   w.StartupCycles,
		StartupCounters: startup,
		Timeline:        w.Timeline,
		OpStats:         opStats,
		Attempts:        w.Attempts,
	}
	if w.Error != "" {
		res.Err = errors.New(w.Error)
	}
	return res, nil
}

// EncodeResult renders the result's canonical JSON encoding.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("harness: cannot encode nil result")
	}
	return json.Marshal(r.Wire())
}

// DecodeResult parses a canonical result encoding. Decoding is
// strict — unknown fields, counter names and operation names are all
// errors — so a corrupt or foreign entry is detected rather than
// half-loaded.
func DecodeResult(data []byte) (*Result, error) {
	var w ResultWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("harness: decoding result: %w", err)
	}
	return w.Result()
}

// snapshotWire renders a counter bank as a name-keyed map, dropping
// zero counters (absence and zero are equivalent in a Snapshot).
func snapshotWire(s perf.Snapshot) map[string]uint64 {
	var m map[string]uint64
	for _, e := range perf.Events() {
		if v := s.Get(e); v != 0 {
			if m == nil {
				m = make(map[string]uint64)
			}
			m[e.String()] = v
		}
	}
	return m
}

// snapshotFromWire resolves a name-keyed counter map back into a
// Snapshot, rejecting names this build does not define.
func snapshotFromWire(m map[string]uint64) (perf.Snapshot, error) {
	var s perf.Snapshot
	//sgxlint:ignore determinism distinct source keys parse to distinct array slots and nothing else happens; the final snapshot is order-independent
	for name, v := range m {
		e, ok := perf.ParseEvent(name)
		if !ok {
			return s, fmt.Errorf("harness: unknown counter %q in result encoding", name)
		}
		s[e] = v
	}
	return s, nil
}

// wireOps lists the instrumented driver operations in a fixed order
// for name round-tripping.
var wireOps = []epc.Op{epc.OpAlloc, epc.OpEWB, epc.OpELDU, epc.OpFault}

func opStatsWire(m map[epc.Op]epc.OpStats) map[string]epc.OpStats {
	if m == nil {
		return nil
	}
	out := make(map[string]epc.OpStats, len(m))
	for _, op := range wireOps {
		if s, ok := m[op]; ok {
			out[op.String()] = s
		}
	}
	return out
}

func opStatsFromWire(m map[string]epc.OpStats) (map[epc.Op]epc.OpStats, error) {
	if m == nil {
		return nil, nil
	}
	out := make(map[epc.Op]epc.OpStats, len(m))
	//sgxlint:ignore determinism map-to-map copy with distinct parsed keys; final map state is order-independent
	for name, s := range m {
		op, ok := parseOp(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown EPC operation %q in result encoding", name)
		}
		out[op] = s
	}
	return out, nil
}

func parseOp(name string) (epc.Op, bool) {
	for _, op := range wireOps {
		if op.String() == name {
			return op, true
		}
	}
	return 0, false
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
