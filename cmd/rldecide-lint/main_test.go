package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rldecide/internal/lint"
)

// TestTypeErrorExitsTwo: a package that does not type-check is a load
// error — exit 2 with the package named on stderr — never a clean run.
func TestTypeErrorExitsTwo(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(root, []string{"src/typeerror"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "src/typeerror") {
		t.Errorf("stderr does not name the package: %q", stderr.String())
	}
}

// TestRulesAligned: -rules sizes the name column from the longest rule
// name, so every description starts in the same column.
func TestRulesAligned(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	rules := lint.AllRules()
	if len(lines) != len(rules) {
		t.Fatalf("%d lines for %d rules", len(lines), len(rules))
	}
	col := -1
	for i, r := range rules {
		at := strings.Index(lines[i], r.Doc())
		if !strings.HasPrefix(lines[i], r.Name()+" ") || at < 0 {
			t.Fatalf("line %q does not list %s", lines[i], r.Name())
		}
		if col >= 0 && at != col {
			t.Errorf("%s: description at column %d, want %d", r.Name(), at, col)
		}
		col = at
	}
}
