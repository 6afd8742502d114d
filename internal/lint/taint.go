package lint

import (
	"go/ast"
	"go/types"
)

// DetermTaint tracks wall-clock and global-RNG values interprocedurally
// and flags any flow into a journal-affecting path. The replay contract
// (docs/lint.md) allows exactly two clock/randomness seams: the
// power.Stopwatch clock and explicitly seeded RNGs. A time.Now() that
// sneaks into a trial record — even laundered through a helper in another
// package — makes the journal unreproducible, which nondeterm-rand and
// nondeterm-time cannot see because each call site looks clean in
// isolation.
//
// Sources: time.Now/Since/Until and package-level math/rand draws
// (methods on a *rand.Rand are tainted only if the Rand itself is, e.g.
// seeded from the clock). internal/power is exempt — it IS the sanctioned
// clock seam, and values produced by its API are considered clean. Live
// metric reads (Value() on an internal/obs Counter) are also sources:
// the instruments are process-wide, shared by every trial running side by
// side, so what a read returns depends on how those trials interleave and
// a journaled metric read differs run to run even when the arithmetic is
// bit-identical. Recorded-span reads (ID() on an active
// span, Spans() on a collector in internal/obs/span) taint the same way:
// a recorded span carries stopwatch timings and retry-attempt IDs, so
// journaling one would leak wall-clock state into the replay surface.
// Deriving a span ID (span.DeriveID/DeriveTrace) is pure hashing and
// stays clean. internal/obs itself is exempt — the /metrics and span
// serving paths are where reads belong.
//
// Sinks: calls into internal/journal, writes to fields of
// internal/journal types, composite literals of those types, and methods
// on core.Recorder (trial metric reporting). Flows are tracked through
// module function summaries to a fixed point: a function that returns a
// tainted value taints its callers, and a function that forwards a
// parameter into a sink turns every tainted argument at that position
// into a finding at the call site.
type DetermTaint struct{}

// Name implements Rule.
func (DetermTaint) Name() string { return "determinism-taint" }

// Doc implements Rule.
func (DetermTaint) Doc() string {
	return "wall-clock/global-RNG values never flow into journal-affecting paths (interprocedural)"
}

// taintSummary is the interprocedural fact sheet for one module function.
type taintSummary struct {
	// returns: some return value may be tainted.
	returns bool
	// paramReturns: bitmask of parameters that may flow to a return value.
	paramReturns int64
	// sinkParams: bitmask of parameters that may flow into a sink.
	sinkParams int64
}

type taintAnalysis struct {
	mod       *Module
	summaries map[*types.Func]*taintSummary
}

// Check implements Rule.
func (r DetermTaint) Check(mod *Module, report ReportFunc) {
	a := &taintAnalysis{mod: mod, summaries: map[*types.Func]*taintSummary{}}
	// Summaries grow monotonically, so iterating to a fixed point
	// propagates taint through call chains; the cap bounds pathological
	// mutual recursion.
	for iter := 0; iter < 8; iter++ {
		changed := false
		mod.eachFunc(func(pkg *Package, fn *types.Func, decl *ast.FuncDecl) {
			sum := a.analyzeFunc(pkg, fn, decl, nil)
			old := a.summaries[fn]
			if old == nil || *old != sum {
				a.summaries[fn] = &sum
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	mod.eachFunc(func(pkg *Package, fn *types.Func, decl *ast.FuncDecl) {
		a.analyzeFunc(pkg, fn, decl, func(pos ast.Node, format string, args ...any) {
			report(r.Name(), pos.Pos(), format, args...)
		})
	})
}

// taintState is the per-function dataflow state: which locals are tainted
// and which parameters each local may carry.
type taintState struct {
	info      *types.Info
	exempt    bool // package is the sanctioned clock seam
	obsExempt bool // package is the metrics registry / serving path
	a         *taintAnalysis
	tainted   map[types.Object]bool
	origin    map[types.Object]int64
	params    map[types.Object]int
}

type emitFunc func(pos ast.Node, format string, args ...any)

// analyzeFunc runs the intra-function walk (two passes, so chained
// assignments settle) and returns fn's summary. With emit set, findings
// are reported on the last pass.
func (a *taintAnalysis) analyzeFunc(pkg *Package, fn *types.Func, decl *ast.FuncDecl, emit emitFunc) taintSummary {
	st := &taintState{
		info:      pkg.TypesInfo,
		exempt:    pathHasSegments(pkg.Path, "internal/power"),
		obsExempt: pathHasSegments(pkg.Path, "internal/obs"),
		a:         a,
		tainted:   map[types.Object]bool{},
		origin:    map[types.Object]int64{},
		params:    map[types.Object]int{},
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len() && i < 63; i++ {
		st.params[sig.Params().At(i)] = i
	}
	var sum taintSummary
	for pass := 0; pass < 2; pass++ {
		var e emitFunc
		if pass == 1 {
			e = emit
		}
		st.walk(decl.Body, sig, &sum, e, 0)
	}
	return sum
}

// walk processes one function body region. depth counts enclosing
// function literals: returns at depth > 0 belong to the literal, not fn,
// but assignments and sinks inside literals still use the shared state —
// that is exactly how captured tainted values leak into callbacks.
func (st *taintState) walk(n ast.Node, sig *types.Signature, sum *taintSummary, emit emitFunc, depth int) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			st.walk(v.Body, sig, sum, emit, depth+1)
			return false
		case *ast.AssignStmt:
			st.assign(v, sum, emit)
		case *ast.RangeStmt:
			if t, o := st.taintOf(v.X); t || o != 0 {
				for _, e := range []ast.Expr{v.Key, v.Value} {
					if id, ok := e.(*ast.Ident); ok && id != nil {
						st.mark(id, t, o)
					}
				}
			}
		case *ast.ReturnStmt:
			if depth > 0 {
				return true
			}
			for _, res := range v.Results {
				t, o := st.taintOf(res)
				sum.returns = sum.returns || t
				sum.paramReturns |= o
			}
			if len(v.Results) == 0 && sig.Results() != nil {
				// Bare return with named results.
				for i := 0; i < sig.Results().Len(); i++ {
					obj := sig.Results().At(i)
					sum.returns = sum.returns || st.tainted[obj]
					sum.paramReturns |= st.origin[obj]
				}
			}
		case *ast.CallExpr:
			st.sinkCall(v, sum, emit)
		case *ast.CompositeLit:
			st.sinkComposite(v, sum, emit)
		}
		return true
	})
}

// assign propagates taint from RHS to LHS and checks field-write sinks.
func (st *taintState) assign(v *ast.AssignStmt, sum *taintSummary, emit emitFunc) {
	if len(v.Rhs) == 1 && len(v.Lhs) > 1 {
		t, o := st.taintOf(v.Rhs[0])
		for _, lhs := range v.Lhs {
			st.markLHS(lhs, t, o, sum, emit)
		}
		return
	}
	for i, lhs := range v.Lhs {
		if i >= len(v.Rhs) {
			break
		}
		t, o := st.taintOf(v.Rhs[i])
		st.markLHS(lhs, t, o, sum, emit)
	}
}

// markLHS taints the assignment target; a write into a journal-type field
// is a sink.
func (st *taintState) markLHS(lhs ast.Expr, t bool, o int64, sum *taintSummary, emit emitFunc) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		st.mark(e, t, o)
	case *ast.SelectorExpr:
		if fv, ok := useOf(st.info, e.Sel).(*types.Var); ok && fv.IsField() && st.a.sinkPkgObj(fv) {
			sum.sinkParams |= o
			if t && emit != nil {
				emit(e, "clock-, RNG-, or metric-derived value is written into journal field %s; only power.Stopwatch or seeded-RNG values may reach the journal", fv.Name())
			}
		}
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			st.mark(id, t, o)
		}
	case *ast.StarExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			st.mark(id, t, o)
		}
	}
}

// mark taints the object behind id (monotonically — taint is never
// cleared, keeping the walk flow-insensitive and cheap).
func (st *taintState) mark(id *ast.Ident, t bool, o int64) {
	if id.Name == "_" {
		return
	}
	obj := useOf(st.info, id)
	if obj == nil {
		return
	}
	if t {
		st.tainted[obj] = true
	}
	st.origin[obj] |= o
}

// sinkCall flags tainted arguments handed to a sink — either a direct
// journal/Recorder call, or a module function whose summary says the
// parameter reaches a sink inside.
func (st *taintState) sinkCall(call *ast.CallExpr, sum *taintSummary, emit emitFunc) {
	callee := CalleeOf(st.info, call)
	if callee == nil {
		return
	}
	if st.a.isSinkFunc(callee) {
		for _, arg := range call.Args {
			t, o := st.taintOf(arg)
			sum.sinkParams |= o
			if t && emit != nil && !st.isSinkCompositeExpr(arg) {
				emit(arg, "clock-, RNG-, or metric-derived value flows into %s.%s — a journal-affecting path; route it through power.Stopwatch or a seeded RNG", pkgNameOf(callee), callee.Name())
			}
		}
		return
	}
	s := st.a.summaries[callee]
	if s == nil || s.sinkParams == 0 {
		return
	}
	for i, arg := range call.Args {
		if i >= 63 || s.sinkParams&(1<<i) == 0 {
			continue
		}
		t, o := st.taintOf(arg)
		sum.sinkParams |= o
		if t && emit != nil {
			emit(arg, "clock-, RNG-, or metric-derived value reaches the journal through %s (parameter %d flows to a journal sink)", callee.Name(), i)
		}
	}
}

// sinkComposite flags tainted elements of a journal-type composite
// literal (rec := journal.Record{T: time.Now()} is a sink even before the
// record is appended).
func (st *taintState) sinkComposite(lit *ast.CompositeLit, sum *taintSummary, emit emitFunc) {
	if !st.isSinkComposite(lit) {
		return
	}
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		t, o := st.taintOf(val)
		sum.sinkParams |= o
		if t && emit != nil {
			emit(val, "clock-, RNG-, or metric-derived value is stored in a journal record literal; only power.Stopwatch or seeded-RNG values may reach the journal")
		}
	}
}

// isSinkComposite reports whether lit constructs a type declared in a
// sink package.
func (st *taintState) isSinkComposite(lit *ast.CompositeLit) bool {
	tv, ok := st.info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && pathHasSegments(obj.Pkg().Path(), "internal/journal")
}

func (st *taintState) isSinkCompositeExpr(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return st.isSinkComposite(v)
	case *ast.UnaryExpr:
		if lit, ok := v.X.(*ast.CompositeLit); ok && v.Op.String() == "&" {
			return st.isSinkComposite(lit)
		}
	}
	return false
}

// taintOf evaluates whether e may carry a clock/RNG-derived value, and
// which of the enclosing function's parameters it may carry.
func (st *taintState) taintOf(e ast.Expr) (bool, int64) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := useOf(st.info, v)
		if obj == nil {
			return false, 0
		}
		o := st.origin[obj]
		if i, ok := st.params[obj]; ok {
			o |= 1 << i
		}
		return st.tainted[obj], o
	case *ast.SelectorExpr:
		if isPackageIdent(st.info, v.X) {
			return false, 0
		}
		return st.taintOf(v.X)
	case *ast.CallExpr:
		return st.taintOfCall(v)
	case *ast.UnaryExpr:
		if v.Op.String() == "<-" {
			return false, 0 // channel payloads are not tracked
		}
		return st.taintOf(v.X)
	case *ast.StarExpr:
		return st.taintOf(v.X)
	case *ast.BinaryExpr:
		t1, o1 := st.taintOf(v.X)
		t2, o2 := st.taintOf(v.Y)
		return t1 || t2, o1 | o2
	case *ast.IndexExpr:
		return st.taintOf(v.X)
	case *ast.SliceExpr:
		return st.taintOf(v.X)
	case *ast.TypeAssertExpr:
		return st.taintOf(v.X)
	case *ast.CompositeLit:
		t, o := false, int64(0)
		for _, elt := range v.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			et, eo := st.taintOf(val)
			t, o = t || et, o|eo
		}
		return t, o
	}
	return false, 0
}

// taintOfCall evaluates a call expression: sources, the power exemption,
// module summaries, and conservative propagation through opaque calls.
func (st *taintState) taintOfCall(call *ast.CallExpr) (bool, int64) {
	// Conversions pass taint through.
	if tv, ok := st.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.taintOf(call.Args[0])
		}
		return false, 0
	}
	argT := make([]bool, len(call.Args))
	argO := make([]int64, len(call.Args))
	anyArgT, allArgO := false, int64(0)
	for i, arg := range call.Args {
		argT[i], argO[i] = st.taintOf(arg)
		anyArgT = anyArgT || argT[i]
		allArgO |= argO[i]
	}
	recvT, recvO := false, int64(0)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !isPackageIdent(st.info, sel.X) {
		recvT, recvO = st.taintOf(sel.X)
	}
	callee := CalleeOf(st.info, call)
	if callee == nil {
		// Dynamic call: propagate conservatively.
		return anyArgT || recvT, allArgO | recvO
	}
	if !st.exempt && isTimeSource(callee) {
		return true, 0
	}
	if isGlobalRandSource(callee) {
		return true, 0
	}
	if !st.obsExempt && isObsMetricRead(callee) {
		return true, 0
	}
	if !st.obsExempt && isObsSpanRead(callee) {
		return true, 0
	}
	if callee.Pkg() != nil && pathHasSegments(callee.Pkg().Path(), "internal/power") {
		return false, 0 // the sanctioned clock seam produces clean values
	}
	if st.a.mod.Graph.DeclOf[callee] != nil {
		// Module function: trust its summary.
		s := st.a.summaries[callee]
		if s == nil {
			return false, 0
		}
		t, o := s.returns, int64(0)
		for i := range call.Args {
			if i < 63 && s.paramReturns&(1<<i) != 0 {
				t = t || argT[i]
				o |= argO[i]
			}
		}
		return t, o
	}
	// Opaque (stdlib) call: taint propagates through unless every result
	// is a bool/error (predicates cannot carry a clock reading usefully).
	if opaqueResultsClean(callee) {
		return false, 0
	}
	return anyArgT || recvT, allArgO | recvO
}

// isTimeSource reports whether fn reads the wall clock — the one list of
// clock sources, shared with nondeterm-time.
func isTimeSource(fn *types.Func) bool {
	return isPkgFunc(fn, "time", "Now", "Since", "Until")
}

// isObsMetricRead reports whether fn reads a live metric value: a Value
// method on an internal/obs instrument. The instruments are shared by
// every trial running side by side, which makes these reads
// nondeterministic even under the bit-identical kernel contract, so
// outside internal/obs they taint like a clock read.
func isObsMetricRead(fn *types.Func) bool {
	if fn.Name() != "Value" || fn.Pkg() == nil || !pathHasSegments(fn.Pkg().Path(), "internal/obs") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isObsSpanRead reports whether fn reads back a recorded causal span: the
// ID of an active span or a collector's span slice in internal/obs/span.
// Recorded spans embed stopwatch durations and attempt-derived IDs, so
// outside internal/obs they taint like a clock read. The derivation
// functions (DeriveTrace, DeriveID) are package-level pure hashes, not
// methods, and stay clean.
func isObsSpanRead(fn *types.Func) bool {
	if fn.Pkg() == nil || !pathHasSegments(fn.Pkg().Path(), "internal/obs/span") {
		return false
	}
	if fn.Name() != "ID" && fn.Name() != "Spans" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isGlobalRandSource reports whether fn draws from the process-global
// math/rand generator — the one list of RNG sources, shared with
// nondeterm-rand. Constructors are excluded: rand.New(seed) is only
// tainted through its seed argument.
func isGlobalRandSource(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // methods on a Rand follow the receiver's taint
	}
	switch fn.Name() {
	case "New", "NewSource", "NewPCG", "NewZipf", "NewChaCha8":
		return false
	}
	return true
}

// isSinkFunc reports whether calling fn hands values to the journal: any
// function in internal/journal, or a method on core.Recorder (trial
// metric reporting — those values land in trial records verbatim).
func (a *taintAnalysis) isSinkFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if pathHasSegments(fn.Pkg().Path(), "internal/journal") {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Recorder" && obj.Pkg() != nil && pathHasSegments(obj.Pkg().Path(), "internal/core")
}

// sinkPkgObj reports whether obj is declared in a journal package.
func (a *taintAnalysis) sinkPkgObj(obj types.Object) bool {
	return obj.Pkg() != nil && pathHasSegments(obj.Pkg().Path(), "internal/journal")
}

// opaqueResultsClean reports whether every result of fn is bool or error.
func opaqueResultsClean(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.Bool {
			continue
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			continue
		}
		return false
	}
	return true
}

// pkgNameOf returns fn's package name for messages.
func pkgNameOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// isPackageIdent reports whether e names an imported package.
func isPackageIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := info.Uses[id].(*types.PkgName)
	return isPkg
}
