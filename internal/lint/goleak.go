package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineLeak flags `go` statements that can block forever: a spawned
// function whose body contains an infinite loop performing channel
// operations with no path that observes cancellation. A loop observes
// cancellation when it receives from a ctx.Done()-style channel, does a
// comma-ok receive (so a close is seen), receives from a chan struct{}
// (the close-signal convention), or ranges over a channel (terminates on
// close). Everything else — heartbeat tickers, bus drains, SSE pumps,
// reconcile loops that spin on a bare receive — outlives shutdown, pins
// its captures, and turns graceful drain into a hang.
//
// The rule is deliberately narrow: straight-line sends/receives and
// bounded loops are out of scope (they terminate or their blocking is the
// caller's contract), and a select with a default case never blocks. The
// spawned callee is resolved through the call graph, so `go s.run()`
// leaking inside run's body in another package is still caught.
type GoroutineLeak struct{}

// Name implements Rule.
func (GoroutineLeak) Name() string { return "goroutine-leak" }

// Doc implements Rule.
func (GoroutineLeak) Doc() string {
	return "spawned goroutines with infinite channel loops observe ctx.Done() or a close signal"
}

// goleakScopes are the package path segments the rule applies to — the
// concurrent control plane and the daemon mains.
var goleakScopes = []string{"internal/executor", "internal/studyd", "internal/shard", "internal/obs", "internal/daemon", "internal/analysis", "cmd"}

// Check implements Rule.
func (r GoroutineLeak) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		if !inAnyScope(pkg.Path, goleakScopes) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body, info := spawnedBody(mod, pkg, g.Call)
				if body == nil {
					return true
				}
				if desc := leakyLoop(info, body); desc != "" {
					report(r.Name(), g.Pos(),
						"goroutine can block forever: %s never observes ctx.Done() or a close signal, so it outlives shutdown", desc)
				}
				return true
			})
		}
	}
}

// spawnedBody resolves the body the go statement will run: a function
// literal's body directly, or the declaration of a statically-resolved
// callee (possibly in another package — then that package's type info is
// returned with it).
func spawnedBody(mod *Module, pkg *Package, call *ast.CallExpr) (*ast.BlockStmt, *types.Info) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pkg.TypesInfo
	}
	fn := CalleeOf(pkg.TypesInfo, call)
	if fn == nil {
		return nil, nil
	}
	decl := mod.Graph.DeclOf[fn]
	if decl == nil {
		return nil, nil
	}
	return decl.Body, mod.Graph.PkgOf[fn].TypesInfo
}

// leakyLoop returns a description of the first infinite channel loop in
// body that never observes cancellation, or "".
func leakyLoop(info *types.Info, body *ast.BlockStmt) string {
	desc := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			// Nested literals run on their own schedule; analyzed when
			// their own go statement spawns them.
			return false
		case *ast.ForStmt:
			if v.Cond != nil {
				return true // bounded or conditional loop
			}
			if d, observes := loopChannelOps(info, v.Body); d != "" && !observes {
				desc = d
			}
			return false // ops inside already classified; don't double-visit
		}
		return true
	})
	return desc
}

// loopChannelOps scans one infinite loop body for blocking channel
// operations and for cancellation observations. It returns a description
// of a blocking op (or "" when the loop has none) and whether any path
// observes ctx.Done()/a close signal.
func loopChannelOps(info *types.Info, body *ast.BlockStmt) (string, bool) {
	blocking, observes := chanOps(info, body)
	if blocking == "" {
		return "", observes
	}
	return "an infinite loop around " + blocking, observes
}

// chanOps classifies the channel operations under n (not descending into
// function literals or nested go statements).
func chanOps(info *types.Info, n ast.Node) (blocking string, observes bool) {
	note := func(b string, o bool) {
		if blocking == "" {
			blocking = b
		}
		observes = observes || o
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.RangeStmt:
			if isChanType(info, v.X) {
				note("", true) // range over a channel ends on close
			}
		case *ast.AssignStmt:
			// v, ok := <-ch observes the close.
			if len(v.Lhs) == 2 && len(v.Rhs) == 1 {
				if recv, ok := ast.Unparen(v.Rhs[0]).(*ast.UnaryExpr); ok && recv.Op.String() == "<-" {
					note("", true)
					return true
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range v.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				note("a select with no default case", false)
				return true
			}
			// A select with default never blocks: its comm ops are not
			// blocking ops, but the case bodies still count.
			for _, cl := range v.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok {
					for _, st := range comm.Body {
						note(chanOps(info, st))
					}
				}
			}
			return false
		case *ast.SendStmt:
			note("a channel send", false)
		case *ast.UnaryExpr:
			if v.Op.String() != "<-" {
				return true
			}
			if isDoneCall(info, v.X) || isSignalChan(info, v.X) {
				note("", true)
			} else {
				note("a channel receive", false)
			}
		}
		return true
	})
	return blocking, observes
}

// isDoneCall reports whether e is a call to a method named Done returning
// a receive-only channel — the ctx.Done() shape.
func isDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	return ok && ch.Dir() == types.RecvOnly
}

// isSignalChan reports whether e is a chan struct{} — the close-signal
// convention (done/quit/wake channels are closed, not sent to).
func isSignalChan(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isChanType reports whether e's type is a channel.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
