package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPkgs are the module-relative package prefixes whose
// code must be bit-for-bit reproducible from a seed: everything that
// feeds simulated state, counters, or rendered experiment output.
// internal/harness is included deliberately — its one wall-clock read,
// the Progress.Wall stamp in runBatch, carries an explicit
// sgxlint:ignore instead of a blanket package exemption.
var deterministicPkgs = []string{
	"internal/sgx",
	"internal/attest",
	"internal/epc",
	"internal/mee",
	"internal/tlb",
	"internal/cache",
	"internal/cycles",
	"internal/enclave",
	"internal/perf",
	"internal/chaos",
	"internal/workloads",
	"internal/ycsb",
	"internal/harness",
}

// underPkgs reports whether the module-relative part of pkgPath is one
// of (or nested under one of) the given prefixes.
func underPkgs(pkgPath string, prefixes []string) bool {
	// Strip "<module>/"; the module root package itself has no slash.
	i := strings.Index(pkgPath, "/")
	if i < 0 {
		return false
	}
	rel := pkgPath[i+1:]
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// sanctionedRandFuncs are the math/rand package-level functions that
// construct explicitly seeded generators; everything else at package
// level draws from the process-global source.
var sanctionedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// Determinism enforces that simulation state and experiment output are
// a pure function of the configured seed. Motivated by the class of
// bugs where a run's counters or report text silently varied between
// invocations: wall-clock reads, the process-seeded global math/rand
// source, and map iteration order all smuggle nondeterminism into
// results that the differential and chaos tests assume are
// bit-identical per seed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and ordered use of " +
		"map iteration inside the simulator core",
	Appliesf: func(pkgPath string) bool { return underPkgs(pkgPath, deterministicPkgs) },
	Run:      runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDeterministicUse(pass, n)
			case *ast.RangeStmt:
				if t := pass.Info.Types[n.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && !isPureMapCopy(pass, n) {
						pass.Reportf(n.Pos(),
							"map iteration order is nondeterministic and must not feed simulation state or output; iterate a sorted key slice (or suppress with a written order-independence argument)")
					}
				}
			}
			return true
		})
	}
}

// isPureMapCopy recognizes the one map-range form that is provably
// order-independent without a pragma: `for k, v := range m { dst[k] = v }`
// with dst a map. Every source key is distinct, each iteration writes
// exactly one distinct destination key, and nothing else happens, so
// the final dst is the same for every iteration order.
func isPureMapCopy(pass *Pass, rng *ast.RangeStmt) bool {
	key, ok1 := rng.Key.(*ast.Ident)
	val, ok2 := rng.Value.(*ast.Ident)
	if !ok1 || !ok2 || key.Name == "_" || val.Name == "_" || rng.Tok != token.DEFINE {
		return false
	}
	if rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	idx, ok := assign.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	dstT := pass.Info.Types[idx.X].Type
	if dstT == nil {
		return false
	}
	if _, isMap := dstT.Underlying().(*types.Map); !isMap {
		return false
	}
	idxID, ok := idx.Index.(*ast.Ident)
	if !ok || pass.Info.Uses[idxID] == nil || pass.Info.Uses[idxID] != pass.Info.Defs[key] {
		return false
	}
	rhsID, ok := assign.Rhs[0].(*ast.Ident)
	return ok && pass.Info.Uses[rhsID] != nil && pass.Info.Uses[rhsID] == pass.Info.Defs[val]
}

// checkDeterministicUse flags selector uses of wall-clock and
// global-source randomness functions.
func checkDeterministicUse(pass *Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.Info.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods like (*rand.Rand).Intn or
	// (time.Time).Sub are the sanctioned, explicitly seeded/derived
	// forms.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			pass.Reportf(sel.Pos(),
				"time.%s reads the host wall clock, which breaks run-to-run determinism; use the simulated cycle clock, or a pragma-marked read at a reporting boundary", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !sanctionedRandFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s draws from the process-global source; the only sanctioned randomness is an explicitly seeded rand.New(rand.NewSource(seed))", fn.Pkg().Name(), fn.Name())
		}
	}
}
