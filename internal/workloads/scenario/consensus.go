package scenario

import (
	"encoding/binary"
	"fmt"

	"sgxgauge/internal/attest"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// consensus: N node enclaves advance a block chain in lockstep rounds.
// Each round every node computes a block over its working set, quotes
// the block hash (the attestation stand-in for a validator signature),
// posts it to the untrusted ledger, then verifies every peer's quote
// and seals its updated chain state. With a Medium/High cast the
// combined working sets exceed the EPC, so the verify-and-seal phase
// lands in the middle of the co-residents' eviction storms — the
// multi-enclave contention figure single-workload runs cannot produce.

func init() {
	Register(Descriptor{
		Name:     "consensus",
		Property: "N attested validators in lockstep rounds",
		Defaults: consensusDefaults,
		Validate: consensusValidate,
		Build:    buildConsensus,
	})
}

const (
	consensusDefaultNodes  = 4
	consensusDefaultRounds = 6
)

func consensusDefaults(n int) []Enclave {
	if n <= 0 {
		n = consensusDefaultNodes
	}
	cast := make([]Enclave, n)
	for i := range cast {
		cast[i] = Enclave{Role: "node", Size: workloads.Medium}
	}
	return cast
}

// consensusValidate checks the cast: at least two nodes, each in the
// node role, all running the same number of rounds. The nodes advance
// in lockstep, so the build reads one round count for all of them.
func consensusValidate(sp Spec) error {
	cast := sp.Cast()
	if len(cast) < 2 {
		return fmt.Errorf("scenario: consensus needs at least 2 nodes, got %d", len(cast))
	}
	for i, e := range cast {
		if e.Role != "node" {
			return fmt.Errorf("scenario: consensus enclave %d must have role \"node\", got %q", i, e.Role)
		}
		if e.Ops != cast[0].Ops {
			return fmt.Errorf("scenario: consensus nodes run in lockstep, but enclave %d has ops %d and enclave 0 has %d", i, e.Ops, cast[0].Ops)
		}
	}
	return nil
}

// post is one node's signed block for one round.
type post struct {
	hash  uint64
	quote attest.Quote
}

func buildConsensus(m *sgx.Machine, sp Spec) (*Instance, error) {
	cast := sp.Cast()
	n := len(cast)
	epc := m.Config().EPCPages

	rounds := cast[0].Ops
	if rounds <= 0 {
		rounds = consensusDefaultRounds
	}

	envs := make([]*sgx.Env, n)
	bases := make([]uint64, n)
	ws := make([]int, n)
	for i, e := range cast {
		ws[i] = workingSetPages(epc, e.Size) / n
		if ws[i] < 8 {
			ws[i] = 8
		}
		env, base, err := launchEnclave(m, ws[i])
		if err != nil {
			return nil, fmt.Errorf("scenario: launching node %d: %w", i, err)
		}
		envs[i] = env
		bases[i] = base
	}

	plat := attest.NewPlatform(m.Config().Seed)
	meas := make([]attest.Measurement, n)
	ids := make([]uint32, n)
	for i, env := range envs {
		meas[i] = attest.MeasureEnclave(env.Enclave)
		ids[i] = env.Enclave.ID
	}

	// ledger[r][i] is node i's post for round r; nil until posted.
	// Programs are serialized by the scheduler, so plain slices are
	// race-free and deterministic.
	ledger := make([][]*post, rounds)
	for r := range ledger {
		ledger[r] = make([]*post, n)
	}

	chains := make([]uint64, n)
	committed := make([]int, n)
	var failure error

	programs := make([]sgx.Program, n)
	for i := range programs {
		node := i
		programs[i] = func(p *sgx.Proc) {
			t := p.T()
			for r := 0; r < rounds && failure == nil; r++ {
				// Compute this round's block over the node's working
				// set, inside the enclave.
				var hash uint64
				t.ECall(func() {
					hash = touchPages(p, bases[node], ws[node], uint64(r)<<8|uint64(node))
					hash = hash*0x9e3779b97f4a7c15 + chains[node] + uint64(r)
					t.Compute(2048) // block assembly
				})
				var rd [32]byte
				binary.LittleEndian.PutUint64(rd[:], hash)
				ledger[r][node] = &post{hash: hash, quote: plat.Quote(t, meas[node], rd)}

				// Wait for the round to fill, then verify every peer's
				// quote and fold their blocks into the chain.
				for peer := 0; peer < n; peer++ {
					for ledger[r][peer] == nil {
						t.Compute(pollCost)
						p.Yield()
					}
				}
				next := chains[node]
				for peer := 0; peer < n; peer++ {
					pb := ledger[r][peer]
					if err := plat.VerifyExpected(t, pb.quote, meas[peer]); err != nil {
						failure = fmt.Errorf("node %d rejects node %d's round-%d quote: %w", node, peer, r, err)
						return
					}
					if binary.LittleEndian.Uint64(pb.quote.ReportData[:]) != pb.hash {
						failure = fmt.Errorf("node %d: node %d's round-%d quote binds the wrong block", node, peer, r)
						return
					}
					next = next*31 + pb.hash
				}
				chains[node] = next
				committed[node]++

				// Seal the updated chain state — the persistence write
				// that lands inside the co-residents' eviction storms.
				var st [8]byte
				binary.LittleEndian.PutUint64(st[:], next)
				t.ECall(func() { _ = plat.SealTo(t, ids[node], uint64(r), st[:]) })
				p.Yield()
			}
		}
	}

	return &Instance{
		Envs:     envs,
		Programs: programs,
		Quantum:  sp.Quantum,
		Finish: func() (workloads.Output, error) {
			if failure != nil {
				return workloads.Output{}, failure
			}
			// Consensus check: every node must have converged on the
			// same chain.
			for i := 1; i < n; i++ {
				if chains[i] != chains[0] {
					return workloads.Output{}, fmt.Errorf("scenario: node %d diverged: chain %#x vs %#x", i, chains[i], chains[0])
				}
			}
			blocks := 0
			for _, c := range committed {
				blocks += c
			}
			return workloads.Output{
				Checksum: chains[0],
				Ops:      int64(blocks),
				Extra: map[string]float64{
					"nodes":               float64(n),
					"rounds":              float64(rounds),
					"quote_verifications": float64(n * n * rounds),
				},
			}, nil
		},
	}, nil
}

// workingSetPages maps an enclave's Size setting to a working set
// relative to the machine's EPC, following the Table 1 convention:
// Low fits comfortably, Medium nears the EPC, High exceeds it — so a
// Medium/High cast of several enclaves contends hard for the EPC even
// though each would fit alone.
func workingSetPages(epcPages int, s workloads.Size) int {
	switch s {
	case workloads.Medium:
		return (epcPages * 3) / 4
	case workloads.High:
		return (epcPages * 3) / 2
	default:
		return epcPages / 4
	}
}

// launchEnclave boots one Native-mode environment with an enclave
// sized for the given working set and returns it with the working
// set's base address.
func launchEnclave(m *sgx.Machine, wsPages int) (*sgx.Env, uint64, error) {
	env := m.NewEnv(sgx.Native)
	size := workloads.NativeImagePages + wsPages + 16
	if _, err := env.LaunchEnclaveReserve(workloads.NativeImagePages, workloads.NativeImagePages, size); err != nil {
		return nil, 0, err
	}
	base, err := env.Alloc(uint64(wsPages)*pageSize, pageSize)
	if err != nil {
		return nil, 0, err
	}
	return env, base, nil
}

// pollCost is the simulated cost of one poll of the shared ledger
// while waiting for a co-resident node — an OCALL-free spin on
// untrusted shared memory.
const pollCost = 64

// touchPages sweeps the working set [base, base+pages), one write per
// page plus per-page compute, yielding to co-residents as it goes.
func touchPages(p *sgx.Proc, base uint64, pages int, salt uint64) uint64 {
	t := p.T()
	var sum uint64
	for i := 0; i < pages; i++ {
		addr := base + uint64(i)*pageSize
		v := t.ReadU64(addr) + salt + uint64(i)
		t.WriteU64(addr, v)
		sum ^= v
		t.Compute(32)
		if i%16 == 0 {
			p.Yield()
		}
	}
	return sum
}
