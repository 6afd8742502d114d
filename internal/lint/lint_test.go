package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// loadFixture parses one testdata/src rule directory recursively.
func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{filepath.Join("src", dir) + "/..."})
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages loaded", dir)
	}
	return pkgs
}

// renderFindings formats findings relative to the fixture dir, one line
// each, matching the expected.txt golden format.
func renderFindings(t *testing.T, dir string, findings []Finding) string {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range findings {
		rel, err := filepath.Rel(base, f.File)
		if err != nil {
			rel = f.File
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.ToSlash(rel), f.Line, f.Col, f.Rule, f.Message)
	}
	return b.String()
}

// checkGolden compares got against testdata/src/<dir>/expected.txt,
// rewriting the golden when -update is set.
func checkGolden(t *testing.T, dir, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "src", dir, "expected.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", dir, got, want)
	}
}

// TestRuleGolden runs each rule in isolation over its fixture tree: the
// bad files are true positives recorded in expected.txt, the clean files
// must produce nothing (any extra line fails the golden comparison).
func TestRuleGolden(t *testing.T) {
	cases := []struct {
		dir  string
		rule Rule
	}{
		{"nondetermrand", NondetermRand{}},
		{"nondetermtime", NondetermTime{}},
		{"maporder", MapOrder{}},
		{"floateq", FloatEq{}},
		{"ctxblocking", CtxBlocking{}},
		{"errdrop", ErrDrop{}},
		{"gospawn", GoSpawn{}},
		{"determtaint", DetermTaint{}},
		{"lockguard", LockDiscipline{}},
		{"goleak", GoroutineLeak{}},
		{"handlerauth", HandlerAuth{}},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			pkgs := loadFixture(t, c.dir)
			runner := &Runner{Rules: []Rule{c.rule}}
			findings, err := runner.Run(pkgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) == 0 {
				t.Fatalf("fixture %s: expected at least one true positive", c.dir)
			}
			for _, f := range findings {
				if f.Rule != c.rule.Name() {
					t.Errorf("rule %s reported under wrong name %q", c.rule.Name(), f.Rule)
				}
				if !strings.Contains(filepath.Base(f.File), "bad") && !strings.Contains(f.File, "bad.go") {
					t.Errorf("finding in non-bad fixture file: %s", f)
				}
			}
			checkGolden(t, c.dir, renderFindings(t, c.dir, findings))
		})
	}
}

// TestSuppressDirective runs the full rule suite over the suppression
// fixture: a well-formed directive silences exactly its named rule, a
// directive naming another rule silences nothing (and is reported stale),
// and a directive without a reason is reported as bad-ignore.
func TestSuppressDirective(t *testing.T) {
	findings, err := NewRunner().Run(loadFixture(t, "suppress"))
	if err != nil {
		t.Fatal(err)
	}

	byRule := map[string]int{}
	for _, f := range findings {
		byRule[f.Rule]++
	}
	// suppress.go has five rand.Float64 call sites; exactly two directives
	// are valid (Suppressed, Trailing), so three findings survive plus one
	// bad-ignore for the reason-less directive and one stale-ignore for the
	// wrong-rule directive that silenced nothing.
	if byRule["nondeterm-rand"] != 3 {
		t.Errorf("want 3 surviving nondeterm-rand findings, got %d", byRule["nondeterm-rand"])
	}
	if byRule[BadIgnoreRule] != 1 {
		t.Errorf("want 1 %s finding, got %d", BadIgnoreRule, byRule[BadIgnoreRule])
	}
	if byRule[StaleIgnoreRule] != 1 {
		t.Errorf("want 1 %s finding, got %d", StaleIgnoreRule, byRule[StaleIgnoreRule])
	}
	checkGolden(t, "suppress", renderFindings(t, "suppress", findings))
}

// TestRepoClean lints the entire module exactly as CI does and requires
// zero findings: the replay contract holds everywhere. Every package must
// type-check (a type error is a load error) and the call graph must be
// non-empty, so a broken importer cannot pass for a clean tree. Fixture
// testdata is skipped by Load's recursive expansion, which this test also
// proves — the fixtures are full of violations.
func TestRepoClean(t *testing.T) {
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
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	findings, err := NewRunner().Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestTypeErrorIsFatal pins all-or-nothing type checking: a package that
// does not type-check fails the run with an error naming it, instead of
// being linted by half the rules and reported clean.
func TestTypeErrorIsFatal(t *testing.T) {
	findings, err := NewRunner().Run(loadFixture(t, "typeerror"))
	if err == nil || !strings.Contains(err.Error(), "src/typeerror") {
		t.Fatalf("want an error naming src/typeerror, got %v (findings %v)", err, findings)
	}
}

// TestLoadSkipsTestFiles pins that Load parses only what the type checker
// sees: no _test.go file, and no package for a directory of tests alone.
func TestLoadSkipsTestFiles(t *testing.T) {
	pkgs, err := Load(".", []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if name := pkg.Fset.Position(f.Package).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("Load parsed test file %s", name)
			}
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "only_test.go"), []byte("package only\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if pkgs, err := Load(dir, []string{"."}); err != nil || len(pkgs) != 0 {
		t.Errorf("a directory of tests alone: got %d packages, err %v; want none", len(pkgs), err)
	}
}

// TestRelativizeDeterministic pins the machine-independent output
// contract the CLI's -json mode relies on: relativized paths are
// slash-separated and root-free, paths outside root survive untouched,
// and sorting after relativization reproduces the same order every time.
func TestRelativizeDeterministic(t *testing.T) {
	root := filepath.Join(string(filepath.Separator), "home", "ci", "repo")
	mk := func(file string, line int, rule string) Finding {
		return Finding{Rule: rule, File: file, Line: line, Col: 1, Message: "x"}
	}
	findings := []Finding{
		mk(filepath.Join(root, "b", "b.go"), 9, "err-drop"),
		mk(filepath.Join(root, "a", "a.go"), 3, "nondeterm-rand"),
		mk(filepath.Join(root, "a", "a.go"), 3, "determinism-taint"),
		mk(filepath.Join(string(filepath.Separator), "elsewhere", "x.go"), 1, "go-spawn"),
	}
	Relativize(findings, root)
	SortFindings(findings)
	got := make([]string, len(findings))
	for i, f := range findings {
		got[i] = fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)
	}
	want := []string{
		filepath.Join(string(filepath.Separator), "elsewhere", "x.go") + ":1:go-spawn",
		"a/a.go:3:determinism-taint",
		"a/a.go:3:nondeterm-rand",
		"b/b.go:9:err-drop",
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order mismatch\n got: %v\nwant: %v", got, want)
		}
	}
	// Idempotence: a second pass must change nothing.
	before := fmt.Sprint(findings)
	Relativize(findings, root)
	SortFindings(findings)
	if after := fmt.Sprint(findings); after != before {
		t.Errorf("second Relativize+Sort changed output:\n%s\nvs\n%s", before, after)
	}
}

// TestRuleNamesUnique guards the suppression contract: directives match
// rules by exact name, so names must be distinct and non-empty.
func TestRuleNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range AllRules() {
		name := r.Name()
		if name == "" || r.Doc() == "" {
			t.Errorf("rule %T needs a name and doc", r)
		}
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
	}
}
