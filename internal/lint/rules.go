package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Registry is the table of enforced rules, evaluated in order. To add
// a rule, append an entry here — Name, Doc, Severity and a Run function
// — add positive/negative fixtures under cmd/psilint/testdata, and add
// its name to the list TestRegistryWellFormed pins. A rule belongs here
// only if nothing else (go vet, the race detector, a test) checks it.
var Registry = []Rule{
	{
		Name:     "gojoin",
		Doc:      "every `go` statement needs a join (WaitGroup.Wait, channel receive/range/select) or context cancellation in its enclosing function",
		Severity: SevError,
		Run:      ruleGoJoin,
	},
	{
		Name:     "ignorederr",
		Doc:      "calls returning an error must not be used as bare statements in internal/ and cmd/ (assign the error or handle it)",
		Severity: SevError,
		Run:      ruleIgnoredErr,
	},
	{
		Name:     "nopanic",
		Doc:      "library code (non-main, non-test-support packages) must not panic outside Must* helpers",
		Severity: SevError,
		Run:      ruleNoPanic,
	},
	{
		Name:     "sleepsync",
		Doc:      "no time.Sleep in production code; synchronize with channels, WaitGroups, or deadlines",
		Severity: SevError,
		Run:      ruleSleepSync,
	},
	{
		Name:     "obscounter",
		Doc:      "no ad-hoc atomic counters on package-level state outside internal/obs; register a Counter/Gauge in the obs registry",
		Severity: SevError,
		Run:      ruleObsCounter,
	},
	{
		Name:     "pkgdoc",
		Doc:      "every package needs a package doc comment (`// Package <name> ...`) on at least one of its files",
		Severity: SevError,
		Run:      rulePkgDoc,
	},
	{
		Name:     "metrichelp",
		Doc:      "obs Registry constructors (Counter, Gauge, Histogram) need a non-empty help string; it becomes the # HELP line on /metrics",
		Severity: SevError,
		Run:      ruleMetricHelp,
	},

	// ---- pseudo-rule: emitted by the suppression engine ----
	{
		Name:     SuppressRule,
		Doc:      "hygiene of //lint:ignore directives: a reason is mandatory (error), rule names must exist (error), stale directives are flagged (warn); emitted by the suppression engine, not a package walker",
		Severity: SevError,
		Run:      func(*Package, ReportFunc) {},
	},
}

// ---- pkgdoc ----

// rulePkgDoc requires a package doc comment: godoc renders the package
// index from it, and an undocumented package is invisible there. One
// documented file per package is enough (conventionally doc.go or the
// file named after the package); the finding is reported on the first
// file's package clause.
func rulePkgDoc(pkg *Package, report ReportFunc) {
	if len(pkg.Files) == 0 {
		return
	}
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return
		}
	}
	report(pkg.Files[0].Name, "package %s has no package doc comment on any file", pkg.Types.Name())
}

// ---- gojoin ----

func ruleGoJoin(pkg *Package, report ReportFunc) {
	for _, fn := range packageFuncs(pkg) {
		var goStmts []*ast.GoStmt
		joined := false

		if fn.decl.Type.Params != nil {
			for _, field := range fn.decl.Type.Params.List {
				if tv, ok := pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
					joined = true
				}
			}
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.GoStmt:
				goStmts = append(goStmts, nn)
			case *ast.SelectStmt:
				joined = true
			case *ast.UnaryExpr:
				if nn.Op == token.ARROW {
					joined = true // channel receive
				}
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[nn.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						joined = true
					}
				}
			case *ast.CallExpr:
				if sel, ok := nn.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Wait":
						if recvIsSync(pkg.Info, sel, "WaitGroup") {
							joined = true
						}
					case "Done":
						if recv, ok := pkg.Info.Types[sel.X]; ok && isContextType(recv.Type) {
							joined = true
						}
					}
				}
			}
			return true
		})
		if joined {
			continue
		}
		for _, g := range goStmts {
			report(g, "goroutine started in %s without a visible join: add a WaitGroup/channel join or context cancellation", fn.name)
		}
	}
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// recvIsSync reports whether sel's receiver is (a pointer to) the named
// sync type.
func recvIsSync(info *types.Info, sel *ast.SelectorExpr, name string) bool {
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// ---- ignorederr ----

// neverFailWriters are types whose error-returning methods are
// documented never to fail (io.Writer-shaped APIs over in-memory
// state); discarding their errors is conventional.
var neverFailWriters = map[string]bool{
	"strings.Builder":   true,
	"bytes.Buffer":      true,
	"hash/maphash.Hash": true,
}

func ruleIgnoredErr(pkg *Package, report ReportFunc) {
	if !strings.Contains(pkg.Path, "/internal/") && !strings.Contains(pkg.Path, "/cmd/") {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok || !returnsError(pkg.Info, call) {
				return true
			}
			if isExemptErrCall(pkg.Info, call) {
				return true
			}
			report(stmt, "call discards its error result; handle it or assign it explicitly")
			return true
		})
	}
}

func isExemptErrCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		name := obj.Name()
		if name == "Print" || name == "Printf" || name == "Println" {
			return true // writes to stdout; conventional to discard
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			arg0 := ast.Unparen(call.Args[0])
			if sel, ok := arg0.(*ast.SelectorExpr); ok {
				if target := info.Uses[sel.Sel]; target != nil && target.Pkg() != nil &&
					target.Pkg().Path() == "os" &&
					(target.Name() == "Stdout" || target.Name() == "Stderr") {
					return true
				}
			}
			// fmt.Fprint* into a never-fail in-memory writer.
			if tv, ok := info.Types[arg0]; ok && isNeverFailWriter(tv.Type) {
				return true
			}
		}
	}
	// Methods of never-fail in-memory writers.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isNeverFailWriter(tv.Type) {
			return true
		}
	}
	return false
}

// isNeverFailWriter reports whether t is (a pointer to) one of the
// neverFailWriters types.
func isNeverFailWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return neverFailWriters[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// ---- nopanic ----

func ruleNoPanic(pkg *Package, report ReportFunc) {
	if pkg.Types.Name() == "main" || isTestSupportPackage(pkg) {
		return
	}
	for _, fn := range packageFuncs(pkg) {
		if strings.HasPrefix(fn.name, "Must") {
			continue // documented panic-on-error helpers, the Go convention
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					report(call, "panic in library code (%s); return an error or move the panic into a Must* helper", fn.name)
				}
			}
			return true
		})
	}
}

// ---- obscounter ----

// ruleObsCounter flags hand-rolled metric counters: direct
// sync/atomic Add* calls (or .Add method calls on sync/atomic named
// types) whose target is package-level state. Such counters are
// invisible to /metrics and skip the Enabled() gate; internal/obs is
// the one place allowed to build them.
func ruleObsCounter(pkg *Package, report ReportFunc) {
	if strings.HasSuffix(pkg.Path, "internal/obs") || isTestSupportPackage(pkg) {
		return
	}
	pkgScope := pkg.Types.Scope()
	// isPkgLevelRoot walks selector/index chains down to the root
	// identifier and reports whether it names a package-level variable.
	var isPkgLevelRoot func(expr ast.Expr) bool
	isPkgLevelRoot = func(expr ast.Expr) bool {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			// pkgvar.field...: qualified package idents resolve the
			// selector itself; otherwise recurse on the receiver.
			if obj := pkg.Info.Uses[e.Sel]; obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() == pkgScope {
					return true
				}
			}
			return isPkgLevelRoot(e.X)
		case *ast.IndexExpr:
			return isPkgLevelRoot(e.X)
		case *ast.Ident:
			v, ok := pkg.Info.Uses[e].(*types.Var)
			return ok && v.Parent() == pkgScope
		}
		return false
	}
	const fix = "ad-hoc atomic counter on package-level state; register a Counter in internal/obs instead"
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Pattern 1: atomic.AddInt64(&pkgVar, d) and friends. The
			// receiver check keeps atomic.Int64 methods (also package
			// sync/atomic) out of this branch.
			if obj := calleeObject(pkg.Info, call); obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "sync/atomic" && strings.HasPrefix(obj.Name(), "Add") &&
				isFreeFunc(obj) && len(call.Args) > 0 {
				if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok &&
					u.Op == token.AND && isPkgLevelRoot(u.X) {
					report(call, fix)
				}
				return true
			}
			// Pattern 2: pkgVar.Add(d) on an atomic.Int64-style type.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
				if tv, ok := pkg.Info.Types[sel.X]; ok && isAtomicNamed(tv.Type) &&
					isPkgLevelRoot(sel.X) {
					report(call, fix)
				}
			}
			return true
		})
	}
}

// isFreeFunc reports whether obj is a package-level function (no
// receiver).
func isFreeFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isAtomicNamed reports whether t is (a pointer to) a named type from
// sync/atomic (Int64, Uint32, ...).
func isAtomicNamed(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic"
}

// ---- metrichelp ----

// ruleMetricHelp requires every metric registered through the obs
// Registry to carry a help string: the second argument of Counter,
// Gauge and Histogram feeds the Prometheus # HELP line, and an empty
// one ships an undocumented metric to every dashboard. Flagged when
// the help argument is a constant empty (or all-whitespace) string.
func ruleMetricHelp(pkg *Package, report ReportFunc) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pkg.Info, call)
			if !isRegistryConstructor(obj) || len(call.Args) < 2 {
				return true
			}
			tv, ok := pkg.Info.Types[call.Args[1]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			if strings.TrimSpace(constant.StringVal(tv.Value)) == "" {
				report(call.Args[1], "metric registered with an empty help string; describe it (%s becomes the # HELP line on /metrics)", obj.Name())
			}
			return true
		})
	}
}

// isRegistryConstructor reports whether obj is the Counter, Gauge or
// Histogram method of the obs Registry.
func isRegistryConstructor(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Registry" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs")
}

// ---- sleepsync ----

func ruleSleepSync(pkg *Package, report ReportFunc) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgFunc(calleeObject(pkg.Info, call), "time", "Sleep") {
				report(call, "time.Sleep used for synchronization; use channels, WaitGroups, timers, or deadlines")
			}
			return true
		})
	}
}
