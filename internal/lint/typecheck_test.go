package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// TestRepoTypechecks loads the whole module and requires every package to
// type-check through the engine's importer stack and the call graph to be
// non-empty: a broken importer must fail here, not surface as a rule that
// quietly finds nothing.
func TestRepoTypechecks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Types == nil || pkg.TypesInfo == nil {
			t.Errorf("%s: no type info", pkg.Path)
		}
	}
	if len(mod.Graph.DeclOf) == 0 {
		t.Fatal("call graph is empty for the whole module")
	}
}

// TestTypecheckModernSyntax pins the engine on generics, type aliases and
// embedded interfaces: the fixture must check without a single error and
// survive the full rule suite silently.
func TestTypecheckModernSyntax(t *testing.T) {
	findings, err := NewRunner().Run(loadFixture(t, "typesmoke"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestCallGraphCrossPackage asserts the call graph links callers across
// package boundaries — what one-level holder inference and taint
// summaries both stand on.
func TestCallGraphCrossPackage(t *testing.T) {
	mod, err := NewModule(loadFixture(t, "determtaint"))
	if err != nil {
		t.Fatal(err)
	}
	helper := mod.PkgByPath("src/determtaint/helper")
	if helper == nil {
		t.Fatal("helper package missing")
	}
	stamp, ok := helper.Types.Scope().Lookup("Stamp").(*types.Func)
	if !ok {
		t.Fatal("helper.Stamp not found in type info")
	}
	callers := mod.Graph.Callers[stamp]
	if len(callers) == 0 {
		t.Fatal("no callers recorded for helper.Stamp across packages")
	}
	found := false
	for _, c := range callers {
		if c.Name() == "Laundered" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected Laundered among Stamp's callers, got %v", callers)
	}
}

// TestStaleIgnore runs the full suite over the stale fixture: the live
// directive survives, the stale one is reported, the unknown-rule one is
// left alone.
func TestStaleIgnore(t *testing.T) {
	findings, err := NewRunner().Run(loadFixture(t, "staleignore"))
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, f := range findings {
		if f.Rule != StaleIgnoreRule {
			t.Errorf("unexpected non-stale finding: %s", f)
			continue
		}
		stale++
	}
	if stale != 1 {
		t.Errorf("want exactly 1 stale-ignore finding, got %d", stale)
	}
	checkGolden(t, "staleignore", renderFindings(t, "staleignore", findings))
}
