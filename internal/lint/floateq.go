package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between float operands. Exact float equality is
// almost always a latent bug — two mathematically identical campaigns can
// diverge on an exact comparison after any reordering of arithmetic — and
// when exactness IS intended (replay verification) that deserves an
// explicit //lint:ignore with the reason. Comparisons should go through
// the mathx tolerance helpers (mathx.ApproxEq).
//
// An operand is a float when go/types gives it a floating-point
// underlying type: a local, a struct field, a function result or a named
// float type alike. A comparison against the constant zero is exempt. In
// this code base it is a sentinel test, not a comparison of two computed
// values: a config field left at zero means "use the default", and the
// kernels skip exact-zero terms, which leaves every finite sum
// bit-identical and is part of their replay contract.
type FloatEq struct{}

// Name implements Rule.
func (FloatEq) Name() string { return "float-eq" }

// Doc implements Rule.
func (FloatEq) Doc() string {
	return "no ==/!= on float operands (constant zero exempt); use mathx.ApproxEq"
}

// Check implements Rule.
func (r FloatEq) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		info := pkg.TypesInfo
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if !isFloat(info, bin.X) && !isFloat(info, bin.Y) || isZeroConst(info, bin.X) || isZeroConst(info, bin.Y) {
					return true
				}
				report(r.Name(), bin.Pos(),
					"%s on float operands is exact-equality and breaks under any arithmetic reordering; use mathx.ApproxEq (or suppress with a reason when exactness is the point)",
					bin.Op)
				return true
			})
		}
	}
}

// isFloat reports whether e's type has a floating-point underlying type.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a float constant equal to zero.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	v := info.Types[e].Value
	return v != nil && isFloat(info, e) && constant.Sign(v) == 0
}
