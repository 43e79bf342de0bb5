package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxflowPkgs are the service-layer packages where every blocking
// operation must be cancellable: the daemon/cluster code, and the
// harness engine that runs underneath it, which has no cancellation
// and so must not wait on the clock at all. The simulator core is
// excluded — it is single-threaded per run and already barred from
// wall-clock use by the determinism analyzer.
var ctxflowPkgs = []string{
	"internal/serve",
	"internal/harness",
}

// CtxFlow enforces that service-layer blocking operations honor
// cancellation. Motivated by the worker retry path: a raw time.Sleep
// in the backoff loop kept a drained worker pinned for the full
// exponential schedule after its context was already cancelled, and a
// context-free http.NewRequest made the poll request impossible to
// abort at all. Long waits must select on ctx.Done() (a time.Timer in
// a select, or the serve.sleepCtx helper) and requests must be built
// with http.NewRequestWithContext.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "blocking operations in the service layer (time.Sleep, time.After, " +
		"time.Tick, http.NewRequest) must be cancellable via ctx.Done()",
	Appliesf: func(pkgPath string) bool { return underPkgs(pkgPath, ctxflowPkgs) },
	Run:      runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		// First pass: classify every time.After call that appears as a
		// select case, so the generic walk below doesn't double-report
		// them; a select is judged as a whole.
		inSelect := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			checkSelect(pass, sel, inSelect)
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := stdlibCallee(pass, call)
			if fn == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
				pass.Reportf(call.Pos(),
					"time.Sleep blocks without a cancellation path; select on ctx.Done() alongside a time.Timer (serve.sleepCtx is the canonical helper)")
			case fn.Pkg().Path() == "time" && fn.Name() == "Tick":
				pass.Reportf(call.Pos(),
					"time.Tick leaks its ticker and cannot be cancelled; use time.NewTicker with a ctx.Done() select and a deferred Stop")
			case fn.Pkg().Path() == "net/http" && fn.Name() == "NewRequest":
				pass.Reportf(call.Pos(),
					"http.NewRequest builds an uncancellable request; use http.NewRequestWithContext so in-flight calls die with their context")
			case fn.Pkg().Path() == "time" && fn.Name() == "After" && !inSelect[call]:
				if bareReceiveOfAfter(f, call) {
					pass.Reportf(call.Pos(),
						"bare receive from time.After blocks without a cancellation path; select on ctx.Done() alongside the timer")
				}
			}
			return true
		})
	}
}

// checkSelect judges one select statement: a time.After (or Timer.C)
// wait inside it is fine exactly when a sibling case receives from a
// Done-style channel. Every time.After call seen as a case is recorded
// in inSelect so the generic walk skips it.
func checkSelect(pass *Pass, sel *ast.SelectStmt, inSelect map[*ast.CallExpr]bool) {
	var afters []*ast.CallExpr
	hasDone := false
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		recv := commReceive(comm.Comm)
		if recv == nil {
			continue
		}
		if call, ok := ast.Unparen(recv).(*ast.CallExpr); ok {
			if fn := stdlibCallee(pass, call); fn != nil && fn.Pkg().Path() == "time" && fn.Name() == "After" {
				inSelect[call] = true
				afters = append(afters, call)
				continue
			}
			if isDoneChannel(pass, call) {
				hasDone = true
			}
		}
	}
	if hasDone {
		return
	}
	for _, call := range afters {
		pass.Reportf(call.Pos(),
			"select waits on time.After with no ctx.Done() case; long waits in the service layer must be cancellable")
	}
}

// commReceive extracts the received channel expression from a select
// comm statement (`<-ch`, `v := <-ch`, `v, ok := <-ch`), or nil for
// send cases.
func commReceive(stmt ast.Stmt) ast.Expr {
	var expr ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	unary, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || unary.Op != token.ARROW {
		return nil
	}
	return unary.X
}

// isDoneChannel reports whether call is a zero-argument Done() method
// call returning <-chan struct{} — context.Context.Done and every
// structurally identical local variant.
func isDoneChannel(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	ch, ok := pass.Info.Types[call].Type.(*types.Chan)
	if !ok || ch.Dir() != types.RecvOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// bareReceiveOfAfter reports whether call appears under a unary
// receive (`<-time.After(d)`) somewhere in f — the blocking form. An
// assignment of the channel for later use is left alone; the eventual
// select is judged on its own.
func bareReceiveOfAfter(f *ast.File, call *ast.CallExpr) bool {
	blocking := false
	ast.Inspect(f, func(n ast.Node) bool {
		unary, ok := n.(*ast.UnaryExpr)
		if !ok || unary.Op != token.ARROW {
			return true
		}
		if ast.Unparen(unary.X) == call {
			blocking = true
		}
		return true
	})
	return blocking
}

// stdlibCallee resolves call's target when it is a package-level
// function declared outside this module; nil otherwise.
func stdlibCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || pass.InModule(fn.Pkg().Path()) {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}
