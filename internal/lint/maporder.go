package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags ranging over a map when the loop body feeds an
// order-sensitive sink — appending to a slice, or writing to an
// encoder/writer — and the enclosing function never sorts. Go randomizes
// map iteration order on purpose, so such a loop emits journal lines,
// report rows or explorer observations in a different order on every run,
// which is exactly the nondeterminism the replay contract forbids.
//
// A range is over a map when go/types says the ranged expression's
// underlying type is one: a parameter, a struct field, a call result alike.
// Writing map values into another map is order-insensitive and not
// flagged, and neither is an append stored back under the range key
// (m[k] = append(m[k], v)): each key's slice receives the same values in
// the same order whatever order the keys come in.
type MapOrder struct{}

// Name implements Rule.
func (MapOrder) Name() string { return "map-order" }

// Doc implements Rule.
func (MapOrder) Doc() string {
	return "no order-sensitive output from a map range without sorting"
}

// orderSinkMethods are method/function selector names whose call order is
// observable in the output.
var orderSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// Check implements Rule.
func (r MapOrder) Check(mod *Module, report ReportFunc) {
	mod.eachFunc(func(pkg *Package, _ *types.Func, fn *ast.FuncDecl) {
		info := pkg.TypesInfo
		if functionSorts(info, fn) {
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := orderSink(info, rng); sink != "" {
				report(r.Name(), rng.Pos(),
					"range over a map feeds %s but the enclosing function never sorts; map order is randomized per run — collect keys, sort, then iterate",
					sink)
			}
			return true
		})
	})
}

// orderSink returns a description of the first order-sensitive operation
// in rng's body, or "".
func orderSink(info *types.Info, rng *ast.RangeStmt) string {
	var key types.Object
	if id, ok := rng.Key.(*ast.Ident); ok {
		key = useOf(info, id)
	}
	found := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			return key == nil || !isKeyedAppend(info, v, key)
		case *ast.CallExpr:
			switch fn := v.Fun.(type) {
			case *ast.Ident:
				if _, builtin := info.Uses[fn].(*types.Builtin); builtin && fn.Name == "append" {
					found = "append"
				}
			case *ast.SelectorExpr:
				if orderSinkMethods[fn.Sel.Name] {
					found = fn.Sel.Name
				}
			}
		}
		return true
	})
	return found
}

// isKeyedAppend reports whether as is m[key] = append(m[key], ...).
func isKeyedAppend(info *types.Info, as *ast.AssignStmt, key types.Object) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.IndexExpr)
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isCall || len(call.Args) == 0 {
		return false
	}
	id, isIdent := dst.Index.(*ast.Ident)
	fn, isFn := call.Fun.(*ast.Ident)
	return isIdent && useOf(info, id) == key && isFn && fn.Name == "append" &&
		types.ExprString(call.Args[0]) == types.ExprString(dst)
}

// functionSorts reports whether fn calls anything that looks like a sort
// (a function of package sort or slices, or a helper whose name contains
// "sort").
func functionSorts(info *types.Info, fn *ast.FuncDecl) bool {
	sorts := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !sorts {
			callee := CalleeOf(info, call)
			sorts = callee != nil && callee.Pkg() != nil && (callee.Pkg().Path() == "sort" || callee.Pkg().Path() == "slices") ||
				strings.Contains(strings.ToLower(calleeName(call)), "sort")
		}
		return !sorts
	})
	return sorts
}
