package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NondetermRand forbids the package-level math/rand functions
// (rand.Float64, rand.IntN, rand.Shuffle, ...) outside internal/mathx.
// They draw from the process-global, auto-seeded source, so any call on a
// trial path makes the campaign irreproducible and breaks journal-replay
// resume. RNGs must be injected as *rand.Rand values derived from the
// study seed (mathx.Seeder / mathx.NewRand). The functions flagged are
// determinism-taint's RNG sources (isGlobalRandSource): this rule reports
// every reference, taint only the ones that reach the journal.
type NondetermRand struct{}

// Name implements Rule.
func (NondetermRand) Name() string { return "nondeterm-rand" }

// Doc implements Rule.
func (NondetermRand) Doc() string {
	return "no package-level math/rand calls outside internal/mathx; inject *rand.Rand"
}

// Check implements Rule.
func (r NondetermRand) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		if pathHasSegments(pkg.Path, "internal/mathx") {
			continue // mathx is the one sanctioned wrapper around math/rand
		}
		funcRefs(pkg, isGlobalRandSource, func(pos token.Pos, fn *types.Func) {
			report(r.Name(), pos,
				"rand.%s uses the process-global source and breaks replay determinism; inject a *rand.Rand derived from the study seed (mathx.NewRand / mathx.Seeder)",
				fn.Name())
		})
	}
}

// NondetermTime forbids reading the wall clock (time.Now, time.Since,
// time.Until — determinism-taint's clock sources, isTimeSource) outside
// the measurement layer. A timestamp that leaks into an algorithm path or
// a journal record differs between the original run and its replay,
// silently breaking bit-for-bit resume. Wall-clock reads are allowed only
// in the allowlisted measurement/observability layers and in commands,
// where they feed human-facing progress output — and even there timing
// that reaches trial metrics must flow through the power package's
// Stopwatch seam. The serving daemon itself is NOT allowlisted: its timing
// (trial wall_ms, event timestamps) flows through power.Stopwatch and the
// obs event bus, so a raw time.Now there is a contract breach.
type NondetermTime struct{}

// Name implements Rule.
func (NondetermTime) Name() string { return "nondeterm-time" }

// Doc implements Rule.
func (NondetermTime) Doc() string {
	return "no time.Now/Since/Until outside internal/power, internal/obs and cmd/"
}

// timeAllowedScopes are import-path segment sequences where wall-clock
// reads are legitimate: the power-measurement layer, the observability
// layer (metric/trace timestamps are informational by construction), and
// command entry points.
var timeAllowedScopes = []string{"internal/power", "internal/obs", "cmd"}

// Check implements Rule.
func (r NondetermTime) Check(mod *Module, report ReportFunc) {
	for _, pkg := range mod.Pkgs {
		if inAnyScope(pkg.Path, timeAllowedScopes) {
			continue
		}
		funcRefs(pkg, isTimeSource, func(pos token.Pos, fn *types.Func) {
			report(r.Name(), pos,
				"time.%s reads the wall clock outside the measurement layer; replayed runs will observe different values — route timing through internal/power (Stopwatch) or inject a clock",
				fn.Name())
		})
	}
}

// funcRefs calls found for every reference in pkg — a call or a function
// value alike — whose object, as the type checker resolved it, satisfies
// is. A qualified reference (rand.Float64) is reported at its qualifier,
// a dot-imported one at the identifier.
func funcRefs(pkg *Package, is func(*types.Func) bool, found func(token.Pos, *types.Func)) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if sel, isSel := n.(*ast.SelectorExpr); isSel {
				id, ok = sel.Sel, true
			}
			if fn, isFn := pkg.TypesInfo.Uses[id].(*types.Func); ok && isFn && is(fn) {
				found(n.Pos(), fn)
				return false
			}
			return true
		})
	}
}
