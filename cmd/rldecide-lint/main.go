// Command rldecide-lint runs the repo's determinism-and-safety static
// analysis suite (internal/lint) over the module and reports violations
// of the replay contract: global-RNG draws, stray wall-clock reads,
// order-sensitive map iteration, exact float comparisons, context-less
// blocking APIs, silently dropped errors, goroutine spawns in the kernel
// packages, interprocedural clock/RNG taint reaching journal sinks,
// guarded-by lock discipline, goroutines that block forever without
// observing cancellation, and unauthenticated mutating HTTP routes. Every
// package is type-checked with go/types first, and every rule but err-drop
// reads its types from there.
//
// Usage:
//
//	rldecide-lint [-json] [-rules] [patterns...]
//
// Patterns are directories, optionally suffixed with /... for recursion;
// the default is ./... (the whole module, skipping testdata). The exit
// code is 0 when clean, 1 when findings are reported, 2 on usage or load
// errors — and a package that does not type-check is a load error, named
// on stderr, never a package silently left unlinted. Output is
// deterministic and machine-independent: file paths are relative to the
// working directory (slash-separated) and findings are ordered by
// (file, line, col, rule), so two runs over the same tree are
// byte-identical — in text and in -json mode alike. Findings can be
// suppressed in source with
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line above it; a directive that no longer
// suppresses anything is itself reported (stale-ignore). See docs/lint.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rldecide/internal/lint"
)

func main() {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rldecide-lint: getwd: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(root, os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the patterns in args relative to root and returns the exit
// code.
func run(root string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rldecide-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	listRules := fs.Bool("rules", false, "list the rules and exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "rldecide-lint: %v\n", err)
		return 2
	}

	if *listRules {
		width := 0
		for _, r := range lint.AllRules() {
			width = max(width, len(r.Name()))
		}
		for _, r := range lint.AllRules() {
			fmt.Fprintf(stdout, "%-*s %s\n", width, r.Name(), r.Doc())
		}
		return 0
	}

	pkgs, err := lint.Load(root, fs.Args())
	if err != nil {
		return fail(err)
	}
	findings, err := lint.NewRunner().Run(pkgs)
	if err != nil {
		return fail(err)
	}
	// Run sorts by absolute path; relativizing preserves that order (all
	// paths share the root prefix) while making output machine-independent.
	lint.Relativize(findings, root)
	lint.SortFindings(findings)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			return fail(fmt.Errorf("encode: %w", err))
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "rldecide-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
