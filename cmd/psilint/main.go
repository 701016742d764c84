// Command psilint enforces this repository's correctness conventions
// with a stdlib-only static analyzer (go/parser + go/types) that
// checks one package at a time.
//
// Usage:
//
//	psilint [-root dir] [-rules r1,r2] [-list]
//
// With no flags it locates the module root (the nearest ancestor of
// the working directory containing go.mod), loads every non-test
// package, evaluates the rule registry, and prints one line per
// finding:
//
//	path/file.go:12:3: [rulename] message
//
// Exit status: 0 clean (no error-severity findings), 1 findings, 2 on
// usage or load errors — so scripts can tell "the repo is dirty" from
// "the analyzer could not run".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the full
// CLI surface.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root      = fs.String("root", "", "module root to lint (default: nearest ancestor with go.mod)")
		list      = fs.Bool("list", false, "print the rule registry (name, severity, doc) and exit")
		rulesFlag = fs.String("rules", "", "comma-separated rule names to run (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *list {
		printRegistry(stdout)
		return exitClean
	}
	rules, err := selectRules(*rulesFlag)
	if err != nil {
		fprintln(stderr, "psilint:", err)
		return exitUsage
	}

	dir := *root
	if dir == "" {
		if dir, err = findModuleRoot(); err != nil {
			fprintln(stderr, "psilint:", err)
			return exitUsage
		}
	}
	if dir, err = filepath.Abs(dir); err != nil {
		fprintln(stderr, "psilint:", err)
		return exitUsage
	}

	loader, err := lint.NewLoader(dir)
	if err != nil {
		fprintln(stderr, "psilint:", err)
		return exitUsage
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fprintln(stderr, "psilint:", err)
		return exitUsage
	}
	if len(pkgs) == 0 {
		fprintf(stderr, "psilint: no Go packages under %s\n", dir)
		return exitUsage
	}
	findings := lint.Run(loader.Fset, pkgs, rules)

	for _, f := range findings {
		fprintf(stdout, "%s: [%s] %s%s\n", f.Pos, f.Rule, warnTag(f), f.Msg)
	}
	if n := countErrors(findings); n > 0 {
		fprintf(stderr, "psilint: %d finding(s), %d gating\n", len(findings), n)
		return exitFindings
	}
	return exitClean
}

// fprintf / fprintln write CLI output best-effort, like fmt.Printf:
// a write error on the user's stdout/stderr is not actionable here,
// and discarding it explicitly keeps the ignorederr rule honest.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func fprintln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

func warnTag(f lint.Finding) string {
	if f.Severity == lint.SevWarn {
		return "(warn) "
	}
	return ""
}

func countErrors(findings []lint.Finding) int {
	n := 0
	for _, f := range findings {
		if f.Severity == lint.SevError {
			n++
		}
	}
	return n
}

// selectRules resolves the -rules filter against the registry.
func selectRules(filter string) ([]lint.Rule, error) {
	if filter == "" {
		return lint.Registry, nil
	}
	byName := map[string]lint.Rule{}
	for _, r := range lint.Registry {
		byName[r.Name] = r
	}
	var out []lint.Rule
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (see -list)", name)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules selected no rules")
	}
	return out, nil
}

func printRegistry(w io.Writer) {
	for _, r := range lint.Registry {
		fprintf(w, "%-12s %-6s %s\n", r.Name, r.Severity, r.Doc)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// directory containing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
