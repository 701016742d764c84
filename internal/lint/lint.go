// Package lint is the engine behind cmd/psilint: a small, stdlib-only
// static-analysis framework (go/parser + go/types) with a table-driven
// rule registry enforcing this repository's correctness conventions.
//
// There is one tier: every rule inspects one type-checked package at a
// time, and the registry holds only conventions no other tool checks
// (what go vet, the race detector or a test already guards is left to
// them). Findings can be suppressed with `//lint:ignore <rules>
// <reason>` directives (suppress.go); the one output is a text line
// per finding and the one gate is zero error-severity findings.
//
// Adding a rule is ~20 lines: append a Rule to Registry in rules.go
// with a Name, a one-line Doc, a Severity and a Run function.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Severity classifies a rule's findings. Errors gate CI; warnings are
// reported but do not affect the exit status.
type Severity int

const (
	SevError Severity = iota
	SevWarn
)

func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Finding is one rule violation at one source position.
type Finding struct {
	Pos      token.Position
	Rule     string
	Severity Severity
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// Rule is one enforced convention.
type Rule struct {
	// Name identifies the rule in findings, directives, and -list.
	Name string
	// Doc is the one-line description shown by psilint -list.
	Doc string
	// Severity is the weight of this rule's findings.
	Severity Severity
	// Run inspects one package and reports violations.
	Run func(pkg *Package, report ReportFunc)
}

// ReportFunc records a finding at node's position.
type ReportFunc func(node ast.Node, format string, args ...any)

// Run evaluates every rule against every package and returns the
// findings sorted by position. Packages are evaluated in parallel (the
// analysis is read-only over the type-checked ASTs). Suppression
// directives are applied before returning: suppressed findings are
// dropped, and directive-hygiene findings (missing reason, unknown
// rule, unused directive) are appended.
func Run(fset *token.FileSet, pkgs []*Package, rules []Rule) []Finding {
	// Fanned out over a bounded worker pool. Each package gets its own
	// findings slot so the merge is deterministic regardless of
	// scheduling.
	perPkg := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			for _, rule := range rules {
				perPkg[i] = append(perPkg[i], runRule(fset, rule, pkg)...)
			}
		}(i, pkg)
	}
	wg.Wait()

	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}

	findings = applySuppressions(fset, pkgs, rules, findings)
	sortFindings(findings)
	return findings
}

// runRule runs one rule over one package with a ReportFunc bound to it.
func runRule(fset *token.FileSet, rule Rule, pkg *Package) []Finding {
	var out []Finding
	rule.Run(pkg, func(node ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:      fset.Position(node.Pos()),
			Rule:     rule.Name,
			Severity: rule.Severity,
			Msg:      fmt.Sprintf(format, args...),
		})
	})
	return out
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// ---- shared helpers used by the rules ----

// isTestSupportPackage reports whether the package is a test-fixture
// package (its path's last element ends in "test", mirroring the stdlib
// httptest/iotest convention); such packages may panic like tests do.
func isTestSupportPackage(pkg *Package) bool {
	parts := strings.Split(pkg.Path, "/")
	return strings.HasSuffix(parts[len(parts)-1], "test")
}

// calleeObject resolves the object a call expression invokes, or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the named function of the named
// package (e.g. "time", "Sleep").
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// returnsError reports whether the call's result includes an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() == nil && obj.Name() == "error"
}

// enclosingFuncs pairs every function body in the package (declarations
// and literals) with the name of the outermost declaration containing
// it, for rules with per-function scope.
type funcScope struct {
	name string // outermost FuncDecl name ("" for package-level literals)
	decl *ast.FuncDecl
	body *ast.BlockStmt
}

func packageFuncs(pkg *Package) []funcScope {
	var out []funcScope
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, funcScope{name: fd.Name.Name, decl: fd, body: fd.Body})
		}
	}
	return out
}
