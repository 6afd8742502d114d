package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// HandlerAuth requires mutating HTTP routes to be registered behind the
// daemon kernel's auth middleware. A POST/PUT/DELETE/PATCH pattern handed
// to (*http.ServeMux).Handle/HandleFunc must wrap its handler in
// Require/RequireTenant (internal/daemon.Auth), or the handler itself
// must perform a bearer check (a call to CheckBearer/Authenticate) —
// otherwise anyone who can reach the listener can submit, cancel or
// re-home studies. Read-only routes stay open by design (the replay
// contract guards writes, not reads).
//
// The receiver is type-checked: only *http.ServeMux registrations are
// examined, so router-local mux abstractions with their own auth story
// can exist without tripping the rule.
type HandlerAuth struct{}

// Name implements Rule.
func (HandlerAuth) Name() string { return "handler-auth" }

// Doc implements Rule.
func (HandlerAuth) Doc() string {
	return "mutating ServeMux routes are registered behind Require/RequireTenant auth middleware"
}

// mutatingMethods are the HTTP methods whose routes must be authed.
var mutatingMethods = map[string]bool{"POST": true, "PUT": true, "DELETE": true, "PATCH": true}

// Check implements Rule.
func (r HandlerAuth) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") || len(call.Args) < 2 {
					return true
				}
				if !isServeMux(pkg.TypesInfo, sel.X) {
					return true
				}
				method, pattern, ok := mutatingPattern(call.Args[0])
				if !ok {
					return true
				}
				if authedHandler(mod, pkg, call.Args[1]) {
					return true
				}
				report(r.Name(), call.Args[1].Pos(),
					"%s route %q is registered without auth middleware; wrap the handler in Require/RequireTenant (mutating routes must not be open)",
					method, pattern)
				return true
			})
		}
	}
}

// isServeMux reports whether e's type is net/http.ServeMux (or a pointer
// to it).
func isServeMux(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isNamed(tv.Type, "net/http", "ServeMux")
}

// mutatingPattern decodes a route pattern literal and reports whether it
// names a mutating method.
func mutatingPattern(arg ast.Expr) (method, pattern string, ok bool) {
	lit, isLit := ast.Unparen(arg).(*ast.BasicLit)
	if !isLit || lit.Kind.String() != "STRING" {
		return "", "", false
	}
	pattern, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", "", false
	}
	method, _, found := strings.Cut(pattern, " ")
	if !found || !mutatingMethods[method] {
		return "", "", false
	}
	return method, pattern, true
}

// authedHandler reports whether the handler argument is guarded: it is
// produced by (or wrapped in) a Require/RequireTenant middleware call, or
// the handler function's own body performs a bearer check.
func authedHandler(mod *Module, pkg *Package, arg ast.Expr) bool {
	wrapped := false
	ast.Inspect(arg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name == "Require" || name == "RequireTenant" {
			wrapped = true
			return false
		}
		return true
	})
	if wrapped {
		return true
	}
	// A named handler that checks the bearer itself counts too.
	if fn := handlerFunc(pkg.TypesInfo, arg); fn != nil {
		if decl := mod.Graph.DeclOf[fn]; decl != nil {
			return checksBearer(decl.Body)
		}
	}
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return checksBearer(lit.Body)
	}
	return false
}

// calleeName returns the bare name of call's callee expression.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// handlerFunc resolves arg to a declared function or method, or nil.
func handlerFunc(info *types.Info, arg ast.Expr) *types.Func {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checksBearer reports whether body calls CheckBearer or Authenticate.
func checksBearer(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); name == "CheckBearer" || name == "Authenticate" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
