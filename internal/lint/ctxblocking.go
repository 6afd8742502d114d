package lint

import (
	"go/ast"
	"go/types"
)

// CtxBlocking requires exported blocking functions in the six ctxScopes
// packages (internal/core, studyd, executor, daemon, shard, analysis) to
// take a context.Context as their first parameter. Those are the packages
// the daemons build on: a blocking call without a context cannot be
// drained on SIGTERM, which turns graceful shutdown — and therefore
// crash-safe journaling — into a race. In internal/executor the stakes are higher still: a heartbeat or
// dispatch loop that cannot be cancelled keeps a dead fleet alive.
//
// "Blocking" means the function body performs a channel send/receive, a
// select, a time.Sleep call, ranges over a ticker/timer channel (a `.C`
// selector), or calls a Wait/Acquire method. The context parameter,
// time.Sleep and context.Background/TODO are resolved by go/types, so an
// aliased or dot import reads the same as a plain one. Function
// literals and go statements are excluded (work launched asynchronously
// does not block the caller). Thin wrappers whose entire body delegates
// to a context-taking variant with context.Background() or context.TODO()
// are exempt — that is the sanctioned convenience-API shape.
type CtxBlocking struct{}

// Name implements Rule.
func (CtxBlocking) Name() string { return "ctx-blocking" }

// Doc implements Rule.
func (CtxBlocking) Doc() string {
	return "exported blocking funcs in internal/{core,studyd,executor,daemon,shard,analysis} take ctx first"
}

// ctxScopes are the package path segment sequences the rule applies to.
var ctxScopes = []string{"internal/core", "internal/studyd", "internal/executor", "internal/daemon", "internal/shard", "internal/analysis"}

// Check implements Rule.
func (r CtxBlocking) Check(mod *Module, report ReportFunc) {
	mod.eachFunc(func(pkg *Package, obj *types.Func, fn *ast.FuncDecl) {
		if !inAnyScope(pkg.Path, ctxScopes) || !fn.Name.IsExported() {
			return
		}
		params := obj.Type().(*types.Signature).Params()
		if params.Len() > 0 && isNamed(params.At(0).Type(), "context", "Context") || isCtxDelegator(pkg.TypesInfo, fn) {
			return
		}
		if op := blockingOp(pkg.TypesInfo, fn.Body); op != "" {
			report(r.Name(), fn.Pos(),
				"exported %s blocks (%s) but does not take a context.Context first parameter; without one the daemon cannot drain it on shutdown",
				fn.Name.Name, op)
		}
	})
}

// isCtxDelegator reports whether fn's body is a single statement that
// calls something with context.Background() or context.TODO() as the
// first argument — the convenience-wrapper shape (Run → RunContext).
func isCtxDelegator(info *types.Info, fn *ast.FuncDecl) bool {
	if len(fn.Body.List) != 1 {
		return false
	}
	var call *ast.CallExpr
	switch st := fn.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(st.Results) == 1 {
			call, _ = st.Results[0].(*ast.CallExpr)
		}
	case *ast.ExprStmt:
		call, _ = st.X.(*ast.CallExpr)
	}
	if call == nil || len(call.Args) == 0 {
		return false
	}
	arg, ok := call.Args[0].(*ast.CallExpr)
	return ok && isPkgFunc(CalleeOf(info, arg), "context", "Background", "TODO")
}

// blockingOp returns a description of the first synchronous blocking
// operation in body, or "". Bodies of go statements and function literals
// are skipped: they run on other goroutines or at another time.
func blockingOp(info *types.Info, body *ast.BlockStmt) string {
	op := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if op != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			// `for range ticker.C` blocks between ticks forever unless a
			// surrounding select watches ctx.Done(). A two-variable range
			// cannot be over a channel, so it is left alone.
			if sel, ok := v.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" && v.Value == nil {
				op = "ticker range"
			}
		case *ast.SendStmt:
			op = "channel send"
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				op = "channel receive"
			}
		case *ast.SelectStmt:
			op = "select"
		case *ast.CallExpr:
			if isPkgFunc(CalleeOf(info, v), "time", "Sleep") {
				op = "time.Sleep"
			} else if sel, ok := v.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Wait" || sel.Sel.Name == "Acquire") {
				op = sel.Sel.Name + " call"
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return op
}
