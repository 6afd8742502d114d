// Package lint is rldecide's repo-specific static analysis suite. It
// enforces the determinism-and-safety invariants the replay contract
// depends on: crash-safe resume (core.Study.Resume + journal replay) only
// reproduces a campaign bit-for-bit if no code path draws from the
// process-global RNG, reads the wall clock outside the measurement layer,
// serializes map iteration order, compares floats exactly, blocks without
// a context, or drops errors on the floor.
//
// The analyzer is stdlib-only (go/ast, go/parser, go/token, go/types) and
// has one engine: it parses the module's non-test files into one shared
// token.FileSet, type-checks every package with go/types (module-internal
// imports resolved from the parsed ASTs, standard-library imports through
// go/importer), builds a per-module call graph, and runs every Rule once
// over the result. Type checking is all or nothing — a package that does
// not check is a load error, never a silently skipped package — so every
// rule that asks a type question gets its answer from go/types. Findings
// carry file:line:column positions and can be silenced one at a time with
// a directive comment:
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or on the line directly above it. The rule
// name must match exactly and the reason is mandatory — an ignore without
// a justification is itself a finding, and so is a directive that no
// longer suppresses anything (stale-ignore).
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Package is one parsed directory of Go source.
type Package struct {
	// Path is the slash-separated import path (module name + relative
	// directory), the key rules use for allowlists.
	Path string
	// Dir is the on-disk directory.
	Dir string
	// Fset positions every file in the package. All packages returned by
	// one Load call share a single FileSet so cross-package analyses can
	// resolve positions uniformly.
	Fset *token.FileSet
	// Files are the package's non-test files in file-name order. _test.go
	// files are never parsed: no rule looks at them and the type checker
	// never sees them.
	Files []*ast.File
	// Types is the type-checked package, set by NewModule.
	Types *types.Package
	// TypesInfo records type-checker facts (uses, defs, selections, expr
	// types), set by NewModule.
	TypesInfo *types.Info
}

// pathHasSegments reports whether the slash-separated import path contains
// the given consecutive segment sequence (e.g. "internal/power").
func pathHasSegments(path, segs string) bool {
	if path == segs {
		return true
	}
	return strings.HasPrefix(path, segs+"/") ||
		strings.HasSuffix(path, "/"+segs) ||
		strings.Contains(path, "/"+segs+"/")
}

// inAnyScope reports whether path contains any of the segment sequences —
// the one test every package-scoped rule uses for its scope or allowlist.
func inAnyScope(path string, scopes []string) bool {
	for _, seg := range scopes {
		if pathHasSegments(path, seg) {
			return true
		}
	}
	return false
}

// ReportFunc records one finding against a node.
type ReportFunc func(rule string, pos token.Pos, format string, args ...any)

// Rule checks one invariant over the whole type-checked module: the
// packages with their go/types facts and the call graph.
type Rule interface {
	// Name is the identifier used in output and //lint:ignore directives.
	Name() string
	// Doc is a one-line description for -help style output.
	Doc() string
	// Check inspects the module and reports findings.
	Check(mod *Module, report ReportFunc)
}

// Runner applies a rule set to a module.
type Runner struct {
	Rules []Rule
}

// NewRunner returns a Runner with the full rldecide rule set.
func NewRunner() *Runner {
	return &Runner{Rules: AllRules()}
}

// AllRules returns the complete rule suite in stable order.
func AllRules() []Rule {
	return []Rule{
		NondetermRand{},
		NondetermTime{},
		MapOrder{},
		FloatEq{},
		CtxBlocking{},
		ErrDrop{},
		GoSpawn{},
		DetermTaint{},
		LockDiscipline{},
		GoroutineLeak{},
		HandlerAuth{},
	}
}

// Load parses the packages selected by patterns relative to root. A
// pattern is either a directory (linted alone) or a directory followed by
// "/..." (linted recursively); "./..." selects the whole module.
// Directories named "testdata", hidden directories and .git are skipped
// during recursive expansion but can still be targeted explicitly.
func Load(root string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module := moduleName(root)
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" || pat == "." {
			pat = root
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(root, pat)
		}
		if !recursive {
			dirs[pat] = true
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := loadDir(fset, root, module, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// loadDir parses one directory's non-test files for the host's GOOS and
// GOARCH into the shared fset, returning nil when it holds none.
func loadDir(fset *token.FileSet, root, module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// A file for another GOARCH or GOOS (mat_generic.go beside
		// mat_amd64.go) is not part of this build of the package.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = dir
	}
	path := filepath.ToSlash(rel)
	if path == "." {
		path = ""
	}
	if module != "" {
		path = strings.TrimSuffix(module+"/"+path, "/")
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files}, nil
}

// moduleName reads the module path from root's go.mod, or returns "".
func moduleName(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Run type-checks the module and applies every rule to it. A package that
// fails to type-check is an error naming it: no rule runs over a tree it
// could only half see.
func (r *Runner) Run(pkgs []*Package) ([]Finding, error) {
	mod, err := NewModule(pkgs)
	if err != nil {
		return nil, err
	}
	return r.Check(mod), nil
}

// Check applies every rule once to the type-checked module and returns the
// surviving findings (suppressed ones removed, stale directives added)
// sorted by position.
func (r *Runner) Check(mod *Module) []Finding {
	var findings []Finding
	report := func(rule string, pos token.Pos, format string, args ...any) {
		p := mod.Fset.Position(pos)
		findings = append(findings, Finding{
			Rule:    rule,
			Pos:     p,
			File:    p.Filename,
			Line:    p.Line,
			Col:     p.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, rule := range r.Rules {
		rule.Check(mod, report)
	}
	findings = r.applySuppressions(mod.Pkgs, findings)
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by (file, line, col, rule) — the stable
// order every consumer (CLI text, -json, goldens) relies on.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// Relativize rewrites finding file paths to slash-separated paths
// relative to root, so tool output is machine-independent (CI artifacts,
// golden diffs). Findings outside root keep their absolute path. The
// relative order of findings is preserved.
func Relativize(findings []Finding, root string) {
	for i := range findings {
		rel, err := filepath.Rel(root, findings[i].File)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		findings[i].File = filepath.ToSlash(rel)
	}
}
