package lint

import (
	"go/ast"
	"go/types"
)

// CallGraph is the module-internal static call graph.
// Edges connect *types.Func objects resolved by the type checker; dynamic
// calls (function values, interface methods) contribute an edge only when
// the checker resolves the callee to a concrete function. Calls made
// inside function literals are attributed to the enclosing declared
// function — precise enough for one-level holder inference and taint
// summaries, which is what the type-aware rules need.
type CallGraph struct {
	// Callees maps a function to the functions it calls, in source order.
	Callees map[*types.Func][]*types.Func
	// Callers is the inverse adjacency, in deterministic (package, file,
	// position) order.
	Callers map[*types.Func][]*types.Func
	// DeclOf maps a module function to its declaration.
	DeclOf map[*types.Func]*ast.FuncDecl
	// PkgOf maps a module function to its defining package.
	PkgOf map[*types.Func]*Package
}

// buildCallGraph walks every package once.
func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		Callees: map[*types.Func][]*types.Func{},
		Callers: map[*types.Func][]*types.Func{},
		DeclOf:  map[*types.Func]*ast.FuncDecl{},
		PkgOf:   map[*types.Func]*Package{},
	}
	// First pass registers every declared function so edges can be
	// restricted to module-internal targets.
	m.eachFunc(func(pkg *Package, fn *types.Func, fd *ast.FuncDecl) {
		g.DeclOf[fn] = fd
		g.PkgOf[fn] = pkg
	})
	m.eachFunc(func(pkg *Package, fn *types.Func, fd *ast.FuncDecl) {
		seen := map[*types.Func]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeOf(pkg.TypesInfo, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, inModule := g.PkgOf[callee]; !inModule {
				return true
			}
			seen[callee] = true
			g.Callees[fn] = append(g.Callees[fn], callee)
			g.Callers[callee] = append(g.Callers[callee], fn)
			return true
		})
	})
	return g
}

// CalleeOf resolves the statically-known callee of call, or nil for
// dynamic calls, conversions and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		// Generic instantiation: f[T](x).
		if id, ok := fun.X.(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			return fn
		}
	}
	return nil
}
