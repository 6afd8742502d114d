package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockDiscipline enforces `// guarded-by: <mutex>` field annotations on
// shared structs. The annotation names a sibling mutex field; every
// access to the guarded field must then happen while that mutex is held.
// "Held" means one of:
//
//   - the enclosing function (or function literal) locks <base>.<mutex>
//     itself — Lock or RLock, on the same base expression;
//   - the enclosing function is a method and every module-internal caller
//     locks the mutex directly (the xxxLocked helper convention, inferred
//     one level deep through the call graph);
//   - the base object was created in the same function by a composite
//     literal — construction before publication needs no lock.
//
// Annotations are declarative and checked, not trusted: a guarded-by
// naming a field that does not exist in the struct is itself a finding.
type LockDiscipline struct{}

// Name implements Rule.
func (LockDiscipline) Name() string { return "lock-discipline" }

// Doc implements Rule.
func (LockDiscipline) Doc() string {
	return "fields annotated `guarded-by: <mutex>` are only touched while the mutex is held"
}

// guardedByMarker introduces the annotation inside a field comment.
const guardedByMarker = "guarded-by:"

// lockUnit is one function body (declared function or literal) with the
// lock state relevant to the discipline check.
type lockUnit struct {
	fn     *types.Func                    // declared function object, nil for literals
	locks  map[*types.Var]map[string]bool // mutex field -> base expr strings locked in this unit
	locals map[types.Object]bool          // vars bound to composite literals created here
	accs   []lockAccess
}

// lockAccess is one syntactic access to a guarded field.
type lockAccess struct {
	sel   *ast.SelectorExpr
	field *types.Var
	base  string
	baseO types.Object // resolved base object when the base is a plain identifier
}

// Check implements Rule.
func (r LockDiscipline) Check(mod *Module, report ReportFunc) {
	guarded := map[*types.Var]*types.Var{} // guarded field -> mutex field
	mutexName := map[*types.Var]string{}   // mutex field -> its name (for messages)

	// Pass 1: collect annotations.
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := guardedAnnotation(field)
					if mu == "" {
						continue
					}
					muVar := structFieldNamed(pkg.TypesInfo, st, mu)
					if muVar == nil {
						report(r.Name(), field.Pos(),
							"guarded-by names %q, which is not a field of this struct", mu)
						continue
					}
					mutexName[muVar] = mu
					for _, id := range field.Names {
						if v, ok := pkg.TypesInfo.Defs[id].(*types.Var); ok {
							guarded[v] = muVar
						}
					}
				}
				return true
			})
		}
	}
	if len(guarded) == 0 {
		return
	}

	// Pass 2: per-unit lock state and accesses.
	var units []*lockUnit
	declLocks := map[*types.Func]map[*types.Var]bool{}
	mod.eachFunc(func(pkg *Package, fn *types.Func, fd *ast.FuncDecl) {
		us := collectUnits(pkg.TypesInfo, fn, fd.Body, guarded)
		units = append(units, us...)
		for _, u := range us {
			if u.fn == nil {
				continue
			}
			set := declLocks[u.fn]
			if set == nil {
				set = map[*types.Var]bool{}
				declLocks[u.fn] = set
			}
			for mu := range u.locks {
				set[mu] = true
			}
		}
	})

	// Pass 3: decide each access.
	for _, u := range units {
		for _, acc := range u.accs {
			mu := guarded[acc.field]
			if u.locks[mu] != nil && u.locks[mu][acc.base] {
				continue
			}
			if acc.baseO != nil && u.locals[acc.baseO] {
				continue // construction before publication
			}
			if u.fn != nil && callersAllLock(mod.Graph, u.fn, mu, declLocks) {
				continue
			}
			report(r.Name(), acc.sel.Sel.Pos(),
				"field %s is guarded-by %s but accessed without holding %s.%s (lock it here, or lock in every caller)",
				acc.field.Name(), mutexName[mu], acc.base, mutexName[mu])
		}
	}
}

// callersAllLock reports whether fn has at least one module-internal
// caller and every one of them directly locks mu — the one-level holder
// inference for xxxLocked helpers.
func callersAllLock(g *CallGraph, fn *types.Func, mu *types.Var, declLocks map[*types.Func]map[*types.Var]bool) bool {
	external := 0
	for _, c := range g.Callers[fn] {
		if c == fn {
			continue // self-recursion proves nothing either way
		}
		if declLocks[c] == nil || !declLocks[c][mu] {
			return false
		}
		external++
	}
	return external > 0
}

// collectUnits walks body, splitting it into the unit for fn itself plus
// one unit per nested function literal (a literal runs on its own
// schedule — often another goroutine — so it must hold locks itself).
func collectUnits(info *types.Info, fn *types.Func, body *ast.BlockStmt, guarded map[*types.Var]*types.Var) []*lockUnit {
	root := newLockUnit(fn)
	units := []*lockUnit{root}
	var walk func(u *lockUnit, n ast.Node)
	walk = func(u *lockUnit, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				child := newLockUnit(nil)
				units = append(units, child)
				walk(child, v.Body)
				return false
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || info.Defs[id] == nil || i >= len(v.Rhs) {
						continue
					}
					if isCompositeCreate(v.Rhs[i]) {
						u.locals[info.Defs[id]] = true
					}
				}
			case *ast.ValueSpec:
				for i, id := range v.Names {
					if info.Defs[id] != nil && i < len(v.Values) && isCompositeCreate(v.Values[i]) {
						u.locals[info.Defs[id]] = true
					}
				}
			case *ast.CallExpr:
				if mu, base := lockCall(info, v); mu != nil {
					if u.locks[mu] == nil {
						u.locks[mu] = map[string]bool{}
					}
					u.locks[mu][base] = true
				}
			case *ast.SelectorExpr:
				obj := useOf(info, v.Sel)
				fv, ok := obj.(*types.Var)
				if !ok {
					return true
				}
				if _, isGuarded := guarded[fv]; !isGuarded {
					return true
				}
				acc := lockAccess{sel: v, field: fv, base: types.ExprString(v.X)}
				if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
					acc.baseO = useOf(info, id)
				}
				u.accs = append(u.accs, acc)
			}
			return true
		})
	}
	walk(root, body)
	return units
}

func newLockUnit(fn *types.Func) *lockUnit {
	return &lockUnit{
		fn:     fn,
		locks:  map[*types.Var]map[string]bool{},
		locals: map[types.Object]bool{},
	}
}

// useOf resolves an identifier to its object, through either Uses or Defs.
func useOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isCompositeCreate reports whether e constructs a fresh value: a
// composite literal, optionally behind & or a new() call.
func isCompositeCreate(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op.String() == "&" {
			_, ok := v.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lockCall decodes base.mu.Lock() / base.mu.RLock(), returning the mutex
// field object and the rendered base expression, or (nil, "").
func lockCall(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return nil, ""
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	mu, ok := useOf(info, muSel.Sel).(*types.Var)
	if !ok || !mu.IsField() {
		return nil, ""
	}
	return mu, types.ExprString(muSel.X)
}

// guardedAnnotation extracts the mutex name from a field's doc or line
// comment, or "".
func guardedAnnotation(field *ast.Field) string {
	for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			text := strings.TrimSpace(strings.TrimLeft(c.Text, "/* "))
			idx := strings.Index(text, guardedByMarker)
			if idx < 0 {
				continue
			}
			rest := strings.TrimSpace(text[idx+len(guardedByMarker):])
			if fields := strings.Fields(rest); len(fields) > 0 {
				return strings.TrimSuffix(fields[0], ".")
			}
		}
	}
	return ""
}

// structFieldNamed resolves the field called name in the struct type st.
func structFieldNamed(info *types.Info, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				v, _ := info.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}
