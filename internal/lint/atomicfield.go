package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// AtomicField enforces all-or-nothing atomicity per struct field: a
// field whose address is passed to a sync/atomic function anywhere in
// the module must be accessed through sync/atomic everywhere in the
// module. A total updated with atomic.AddUint64 on a hot path and read
// with a plain load in a reporter is exactly the mixed access the race
// detector only catches under a lucky interleaving, and on non-TSO
// hardware the plain read can observe a torn or stale value forever. This is the suite's first genuinely
// module-wide analyzer: the atomic site and the plain site are usually
// in different functions and often in different packages, so the facts
// come from the call-graph layer's FieldFacts table rather than the
// current package alone.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "a struct field touched by sync/atomic anywhere must be touched " +
		"atomically everywhere (typed atomics are exempt by construction)",
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) {
	facts := pass.Graph.Fields
	if facts == nil {
		return
	}
	// Findings belong to the package whose files contain the plain
	// access; restrict to this pass so per-package suppressions apply
	// and nothing is reported twice.
	inPass := map[string]bool{}
	for _, f := range pass.Files {
		inPass[pass.Fset.Position(f.Pos()).Filename] = true
	}
	// Deterministic field order: sort by the first atomic site.
	fields := make([]types.Object, 0, len(facts.Atomic))
	for obj := range facts.Atomic {
		if len(facts.Plain[obj]) > 0 {
			fields = append(fields, obj)
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		return facts.Atomic[fields[i]][0] < facts.Atomic[fields[j]][0]
	})
	for _, obj := range fields {
		for _, pos := range facts.Plain[obj] {
			if !inPass[pass.Fset.Position(pos).Filename] {
				continue
			}
			pass.Reportf(pos,
				"field %s is updated through sync/atomic at %d site(s) (first: %s) but accessed plainly here; make every access atomic, or drop atomics for a mutex",
				obj.Name(), len(facts.Atomic[obj]), relPos(pass.Fset, facts.Atomic[obj][0]))
		}
	}
}

// relPos renders pos as file:line with only the base file name, for
// embedding in a message without machine-specific absolute paths.
func relPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
