package lint

import (
	"go/ast"
)

// GoSpawn forbids `go` statements inside the numeric hot-path packages
// (internal/tensor, internal/nn). The kernels are serial: the policy
// shapes are too small for a fan-out to pay for its goroutines, and the
// cores are already taken by the layers that run trials and actors side by
// side — core.Study.Parallelism, executor slots, internal/distrib. A go
// statement here allocates on every kernel invocation and fights those
// layers for the same cores (docs/perf.md "Kernel structure" has the A/B).
type GoSpawn struct{}

// Name implements Rule.
func (GoSpawn) Name() string { return "go-spawn" }

// Doc implements Rule.
func (GoSpawn) Doc() string {
	return "no goroutine spawning in hot-path kernel packages; kernels are serial, concurrency belongs to core.Study.Parallelism and executor slots"
}

// goSpawnScopes are the hot-path packages the rule applies to.
var goSpawnScopes = []string{"internal/tensor", "internal/nn"}

// Check implements Rule.
func (g GoSpawn) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		if !inAnyScope(pkg.Path, goSpawnScopes) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if st, ok := n.(*ast.GoStmt); ok {
					report(g.Name(), st.Pos(),
						"go statement in a hot-path kernel package allocates per call and competes for the cores trials already run on; kernels are serial, concurrency belongs to core.Study.Parallelism and executor slots")
				}
				return true
			})
		}
	}
}
