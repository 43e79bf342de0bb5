package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
)

// guardedByRe matches the field annotation, e.g. "guarded by mu".
var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// callerHoldsRe matches the function annotation, e.g.
// "caller holds mu".
var callerHoldsRe = regexp.MustCompile(`caller holds (\w+)`)

// LockDiscipline enforces annotated mutex protection: a struct field
// carrying a `// guarded by <mu>` comment may only be accessed inside
// functions that lock <mu> (a `<mu>.Lock()` or `<mu>.RLock()` call
// anywhere in the function) or that declare `// caller holds <mu>` in
// their doc comment. The daemon's registries and tables (job registry,
// result caches, boot templates, page recycler) are read and written
// from request and worker goroutines, and one unguarded append from a
// worker goroutine is a data race the race detector only catches when
// a test happens to interleave it. The
// check is flow-insensitive by design — it enforces the annotation
// discipline, not a happens-before proof.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "fields annotated `guarded by <mu>` may only be accessed in " +
		"functions that lock <mu> or are annotated `caller holds <mu>`; " +
		"`caller holds` functions may only be called with the lock held",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	guards := collectGuardedFields(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if len(guards) > 0 {
				checkFuncLocks(pass, fd, guards)
			}
			checkCallPaths(pass, fd)
		}
	}
}

// checkCallPaths is the interprocedural half of the discipline: a
// function whose doc declares `caller holds <mu>` may only be reached
// from call sites whose enclosing function either locks <mu> itself
// or declares <mu> held in turn. The original analyzer took the
// annotation on faith — the annotated callee was checked, but nothing
// stopped an unlocked caller from reaching it, which is exactly how a
// *Locked helper escapes its lock over a refactor. Matching is by
// mutex name, consistent with the flow-insensitive field check.
func checkCallPaths(pass *Pass, fd *ast.FuncDecl) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	node := pass.Graph.NodeOf(fn)
	if node == nil {
		return
	}
	held := node.Summary.Locks
	for _, cs := range node.Calls {
		callee := pass.Graph.NodeOf(cs.Callee)
		if callee == nil || len(callee.Summary.CallerHolds) == 0 {
			continue
		}
		mus := make([]string, 0, len(callee.Summary.CallerHolds))
		for mu := range callee.Summary.CallerHolds {
			mus = append(mus, mu)
		}
		sort.Strings(mus)
		for _, mu := range mus {
			if held[mu] || node.Summary.CallerHolds[mu] {
				continue
			}
			pass.Reportf(cs.Pos,
				"%s declares `caller holds %s`, but %s neither locks %s nor declares `caller holds %s`",
				cs.Callee.Name(), mu, funcLabel(fd), mu, mu)
		}
	}
}

// collectGuardedFields maps each annotated struct field object to the
// name of its guarding mutex, harvested from the field's line comment
// or doc comment.
func collectGuardedFields(pass *Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := fieldGuard(field)
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guards[obj] = guard
					}
				}
			}
			return true
		})
	}
	return guards
}

// fieldGuard extracts the guard name from a field's comments.
func fieldGuard(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkFuncLocks verifies every guarded-field access in fd against the
// set of mutexes the function locks or declares held.
func checkFuncLocks(pass *Pass, fd *ast.FuncDecl, guards map[types.Object]string) {
	held := map[string]bool{}
	if fd.Doc != nil {
		for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			held[m[1]] = true
		}
	}
	// First pass: every mutex this function locks anywhere in its body
	// (including function literals — a nested closure's Lock still
	// brackets the accesses around it under this flow-insensitive
	// model).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			held[recv.Name] = true
		case *ast.SelectorExpr:
			held[recv.Sel.Name] = true
		}
		return true
	})
	// Second pass: guarded-field accesses.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		guard, guarded := guards[selection.Obj()]
		if !guarded || held[guard] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"field %s is guarded by %q, but %s neither locks %s nor declares `caller holds %s`",
			sel.Sel.Name, guard, funcLabel(fd), guard, guard)
		return true
	})
}

// funcLabel names fd for diagnostics, including the receiver type.
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
