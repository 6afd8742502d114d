package lint

import (
	"go/ast"
)

// ErrDrop flags statements that silently discard an error return in
// non-test code. A journal append whose error vanishes is a lost trial —
// the resume machinery then replays a campaign that no longer matches its
// journal. Errors must be handled, returned, or discarded explicitly with
// `_ = f()` (the assignment is the acknowledgment); deferred calls are
// exempt by convention.
//
// err-drop is the one rule that asks go/types nothing. It flags two
// shapes: bare calls to functions declared in the same package whose last
// result is error, and bare calls to methods with conventionally
// error-returning names (Close, Flush, Encode, ...). Same-package method
// names are flagged only when every method of that name in the package
// returns an error. A typed version would flag any bare call whose last
// result is error; docs/lint.md records what it would find.
type ErrDrop struct{}

// Name implements Rule.
func (ErrDrop) Name() string { return "err-drop" }

// Doc implements Rule.
func (ErrDrop) Doc() string {
	return "no silently discarded error returns in non-test code"
}

// errDropMethods are method names that conventionally return an error
// worth checking.
var errDropMethods = map[string]bool{
	"Close": true, "Flush": true, "Sync": true, "Shutdown": true,
	"Encode": true, "Remove": true, "RemoveAll": true, "Rename": true,
	"MkdirAll": true, "Mkdir": true, "Setenv": true, "Unsetenv": true,
	"Truncate": true, "ListenAndServe": true, "Serve": true, "Chmod": true,
}

// Check implements Rule.
func (r ErrDrop) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		funcs, methods := errReturningDecls(pkg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := ""
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					// Obj is non-nil for same-file package functions (Kind
					// Fun) and for locally redeclared names (Kind Var); only
					// the latter are exempt.
					if funcs[fn.Name] && (fn.Obj == nil || fn.Obj.Kind == ast.Fun) {
						name = fn.Name
					}
				case *ast.SelectorExpr:
					if errDropMethods[fn.Sel.Name] || methods[fn.Sel.Name] {
						name = fn.Sel.Name
					}
				}
				if name != "" {
					report(r.Name(), stmt.Pos(),
						"%s returns an error that is silently discarded; handle it or discard explicitly with _ =", name)
				}
				return true
			})
		}
	}
}

// errReturningDecls scans every file of pkg and returns the plain
// functions whose last result is error, plus the method names for which
// every same-named method in the package returns an error.
func errReturningDecls(pkg *Package) (funcs, methods map[string]bool) {
	funcs = map[string]bool{}
	methods = map[string]bool{}
	nonErr := map[string]bool{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			returnsErr := lastResultIsError(fn.Type)
			if fn.Recv == nil {
				if returnsErr {
					funcs[fn.Name.Name] = true
				}
				continue
			}
			if returnsErr {
				methods[fn.Name.Name] = true
			} else {
				nonErr[fn.Name.Name] = true
			}
		}
	}
	for name := range nonErr {
		delete(methods, name)
	}
	return funcs, methods
}

// lastResultIsError reports whether ft's final result type is the
// identifier error.
func lastResultIsError(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}
