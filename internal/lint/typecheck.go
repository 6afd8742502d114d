package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"slices"
)

// Module is the type-checked view of one Load result: every package
// checked with go/types against a single shared FileSet, plus the
// module-internal call graph. Module-internal imports resolve straight
// from the parsed ASTs (so fixture trees under testdata type-check with
// fake import paths), standard-library imports resolve through the
// compiler's export data with a source-importer fallback.
//
// Type checking is all or nothing: NewModule fails on the first type
// error, naming the package, so every rule may trust TypesInfo.
type Module struct {
	// Fset is the FileSet shared by every package in the module.
	Fset *token.FileSet
	// Pkgs are the module's packages in Load order (sorted by directory).
	Pkgs []*Package
	// Graph is the module-internal call graph.
	Graph *CallGraph

	byPath   map[string]*Package
	imp      *moduleImporter
	checking map[string]bool
}

// NewModule type-checks pkgs (which must share one FileSet, as Load
// guarantees) and builds the call graph. Any type error is returned.
func NewModule(pkgs []*Package) (*Module, error) {
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	m := &Module{
		Fset:     fset,
		Pkgs:     pkgs,
		byPath:   make(map[string]*Package, len(pkgs)),
		checking: map[string]bool{},
	}
	for _, p := range pkgs {
		m.byPath[p.Path] = p
	}
	m.imp = &moduleImporter{mod: m, std: map[string]*types.Package{}}
	for _, p := range pkgs {
		if _, err := m.ensure(p); err != nil {
			return nil, err
		}
	}
	m.Graph = buildCallGraph(m)
	return m, nil
}

// PkgByPath returns the module package with the given import path, or nil.
func (m *Module) PkgByPath(path string) *Package { return m.byPath[path] }

// eachFunc visits every declared function with a body, in package, file
// and source order.
func (m *Module) eachFunc(visit func(pkg *Package, fn *types.Func, decl *ast.FuncDecl)) {
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					visit(pkg, pkg.TypesInfo.Defs[fd.Name].(*types.Func), fd)
				}
			}
		}
	}
}

// ensure type-checks p once (a checked package keeps its Types); imports
// of other module packages recurse through the importer.
func (m *Module) ensure(p *Package) (*types.Package, error) {
	if p.Types != nil {
		return p.Types, nil
	}
	if m.checking[p.Path] {
		return nil, fmt.Errorf("lint: import cycle through %s", p.Path)
	}
	m.checking[p.Path] = true
	defer delete(m.checking, p.Path)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// With no Error callback the checker stops at the first error.
	conf := types.Config{Importer: m.imp, FakeImportC: true}
	path := p.Path
	if path == "" {
		path = "module"
	}
	tpkg, err := conf.Check(path, p.Fset, p.Files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: package %s does not type-check: %w", path, err)
	}
	p.Types, p.TypesInfo = tpkg, info
	return tpkg, nil
}

// moduleImporter resolves imports in three layers: module-internal
// packages from their parsed source, "unsafe" specially, and everything
// else (the standard library) through the gc export-data importer with a
// source importer fallback. Results are memoized.
type moduleImporter struct {
	mod *Module
	std map[string]*types.Package
	gc  types.Importer
	src types.Importer
}

// Import implements types.Importer.
func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := im.mod.byPath[path]; p != nil {
		return im.mod.ensure(p)
	}
	if pkg := im.std[path]; pkg != nil {
		return pkg, nil
	}
	if im.gc == nil {
		im.gc = importer.Default()
	}
	pkg, err := im.gc.Import(path)
	if err != nil {
		if im.src == nil {
			im.src = importer.ForCompiler(im.mod.Fset, "source", nil)
		}
		var srcErr error
		pkg, srcErr = im.src.Import(path)
		if srcErr != nil {
			return nil, fmt.Errorf("lint: import %q: %v (source fallback: %v)", path, err, srcErr)
		}
	}
	im.std[path] = pkg
	return pkg, nil
}

// isPkgFunc reports whether fn is one of the named functions of the
// package at path — a callee or function value resolved by the type
// checker, so aliased and dot imports resolve like plain ones.
func isPkgFunc(fn *types.Func, path string, names ...string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && slices.Contains(names, fn.Name())
}

// isNamed reports whether t, or the type it points to, is the declared
// type path.name.
func isNamed(t types.Type, path, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == path
}
