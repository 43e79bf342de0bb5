package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural layer under the analyzer suite: a
// module-wide static call graph with per-function summaries, built
// once per RunAnalyzers invocation and handed to every analyzer
// through Pass.Graph. Analyzers stay per-package — each reports only
// findings located in its own package — but judge those findings
// against module-wide facts: who calls whom and which functions lock
// which mutexes.
//
// Resolution is static and deliberately conservative. A call resolves
// to a FuncNode only when the type checker binds it to a concrete
// declared function or method of this module — plain calls, method
// calls through named types (including promoted methods), and method
// values the checker can pin down. Calls through interfaces, function
// variables, or external packages produce no module edge; an analyzer
// relying on edges therefore never reports on the strength of a guess.

// Graph is the module-wide call graph with the per-function summaries
// shared by all analyzers.
type Graph struct {
	// nodes maps every declared function or method of the module to
	// its node.
	nodes map[*types.Func]*FuncNode
	// callers indexes call sites by callee.
	callers map[*types.Func][]*CallSite
}

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	// Fn is the type-checker object for the declaration.
	Fn *types.Func
	// Decl is the source declaration.
	Decl *ast.FuncDecl
	// PkgPath is the declaring package's import path.
	PkgPath string
	// Calls are the statically resolved call sites inside the body
	// (function literals included — a closure's calls belong to the
	// function that lexically contains it, matching the suite's
	// flow-insensitive lock model).
	Calls []*CallSite
	// Summary holds the per-function facts analyzers consume.
	Summary Summary
}

// CallSite is one statically resolved call.
type CallSite struct {
	// Caller is the function whose body (or nested literal) contains
	// the call.
	Caller *FuncNode
	// Callee is the resolved target; it has a node in the graph only
	// when declared in this module.
	Callee *types.Func
	// Pos locates the call expression.
	Pos token.Pos
	// InLiteral marks a call site inside a function literal nested in
	// the caller (a goroutine body, an AfterFunc callback, a deferred
	// closure) rather than in the caller's own statement list.
	InLiteral bool
}

// Summary is the per-function fact sheet the analyzers consume.
type Summary struct {
	// Locks names every mutex the function locks anywhere in its body
	// (Lock or RLock, nested literals included) — the flow-insensitive
	// "held" set lockdiscipline already used intra-procedurally.
	Locks map[string]bool
	// CallerHolds names the mutexes the function's doc comment
	// declares held on entry (`// caller holds <mu>`).
	CallerHolds map[string]bool
	// WaitGroupDone reports that the function calls Done on a
	// sync.WaitGroup — goroleak accepts `go f()` as joined when f
	// signals a WaitGroup itself.
	WaitGroupDone bool
}

// NodeOf returns the graph node for fn, or nil when fn is not a
// declared function of this module.
func (g *Graph) NodeOf(fn *types.Func) *FuncNode {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// CallersOf returns every statically resolved call site targeting fn.
func (g *Graph) CallersOf(fn *types.Func) []*CallSite {
	if g == nil {
		return nil
	}
	return g.callers[fn]
}

// BuildGraph constructs the call graph and function summaries for the
// module's loaded packages.
func BuildGraph(mod *Module) *Graph {
	g := &Graph{
		nodes:   map[*types.Func]*FuncNode{},
		callers: map[*types.Func][]*CallSite{},
	}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, PkgPath: pkg.Path}
				node.Summary = summarize(pkg.Info, fd)
				g.nodes[fn] = node
			}
		}
	}
	// Second pass: edges (needs every node to exist first only for
	// clarity; callee nodes are looked up lazily by analyzers).
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.nodes[fn]
				if node == nil {
					continue
				}
				collectCalls(g, pkg.Info, node)
			}
		}
	}
	return g
}

// summarize computes one function's fact sheet.
func summarize(info *types.Info, fd *ast.FuncDecl) Summary {
	s := Summary{Locks: map[string]bool{}, CallerHolds: map[string]bool{}}
	if fd.Doc != nil {
		for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			s.CallerHolds[m[1]] = true
		}
	}
	if fd.Body == nil {
		return s
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			switch recv := ast.Unparen(sel.X).(type) {
			case *ast.Ident:
				s.Locks[recv.Name] = true
			case *ast.SelectorExpr:
				s.Locks[recv.Sel.Name] = true
			}
		case "Done":
			if isWaitGroup(info.Types[sel.X].Type) {
				s.WaitGroupDone = true
			}
		}
		return true
	})
	return s
}

// collectCalls records node's statically resolved call sites,
// attributing calls inside nested function literals to node itself.
func collectCalls(g *Graph, info *types.Info, node *FuncNode) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case *ast.CallExpr:
			callee := staticCallee(info, n)
			if callee == nil {
				return true
			}
			cs := &CallSite{Caller: node, Callee: callee, Pos: n.Pos(), InLiteral: depth > 0}
			node.Calls = append(node.Calls, cs)
			g.callers[callee] = append(g.callers[callee], cs)
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
}

// staticCallee resolves the declared function or method a call
// expression statically targets, or nil for indirect calls,
// conversions, and builtins. Method calls resolve through the
// receiver's named type; interface method calls resolve to the
// interface's method object, which has no module node.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
