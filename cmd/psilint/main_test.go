package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe matches the expectation comments in the fixture sources:
// a line ending in `// want "substring"` must produce exactly one
// finding on that line whose message contains the substring. The
// `// want+N "substring"` form expects the finding N lines below the
// annotation — needed when the flagged line is itself a directive
// that would swallow a trailing comment into its reason text.
var wantRe = regexp.MustCompile(`// want(\+\d+)? "([^"]*)"`)

// TestRulesOnFixtures runs the full registry over every fixture
// package under testdata and checks the findings line-for-line against
// the `// want` annotations: each annotated line must fire, and no
// unannotated line may.
func TestRulesOnFixtures(t *testing.T) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("reading testdata: %v", err)
	}
	loader, err := lint.NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			// The /internal/ segment puts the fixtures in scope for the
			// path-scoped rules (ignorederr).
			pkg, err := loader.LoadDir("fixture/internal/"+name, dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings := lint.Run(loader.Fset, []*lint.Package{pkg}, lint.Registry)

			wants, err := collectWants(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want annotations", name)
			}
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
				substr, ok := wants[key]
				if !ok {
					t.Errorf("unexpected finding: %s", f)
					continue
				}
				if !strings.Contains(f.Msg, substr) {
					t.Errorf("finding at %s: message %q does not contain %q", key, f.Msg, substr)
				}
				delete(wants, key)
			}
			for key, substr := range wants {
				t.Errorf("missing finding at %s (want message containing %q)", key, substr)
			}
		})
	}
}

// collectWants maps "file.go:line" to the expected message substring
// for every `// want` annotation under dir, applying any +N offset.
func collectWants(dir string) (map[string]string, error) {
	wants := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, err = strconv.Atoi(m[1][1:])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want offset %q", ent.Name(), i+1, m[1])
				}
			}
			wants[fmt.Sprintf("%s:%d", ent.Name(), i+1+offset)] = m[2]
		}
	}
	return wants, nil
}

// TestRegistryWellFormed pins the registry to the exact rule list: a
// rule is added or dropped on purpose, with this list edited in the
// same change, and every entry is complete.
func TestRegistryWellFormed(t *testing.T) {
	want := []string{"gojoin", "ignorederr", "nopanic", "sleepsync", "obscounter", "pkgdoc", "metrichelp", "suppress"}
	var got []string
	for _, r := range lint.Registry {
		if r.Doc == "" || r.Run == nil {
			t.Errorf("rule %q missing doc or Run", r.Name)
		}
		got = append(got, r.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry = %v, want exactly %v", got, want)
	}
}

// TestRepoIsClean lints the repository itself and requires zero
// findings — the conventions psilint enforces must hold here.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow; skipped with -short")
	}
	loader, err := lint.NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing directories", len(pkgs))
	}
	for _, f := range lint.Run(loader.Fset, pkgs, lint.Registry) {
		t.Errorf("%s", f)
	}
}

// ---- CLI surface ----

// runCLI drives run() and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeModule lays out a throwaway module for end-to-end CLI tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module tmpfixture\n\ngo 1.22\n"
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const sleepSrc = `// Package tmpfixture is a throwaway module for CLI tests.
package tmpfixture

import "time"

func wait() {
	time.Sleep(time.Second)
}

var _ = wait
`

const cleanSrc = `// Package tmpfixture is a throwaway module for CLI tests.
package tmpfixture

func add(a, b int) int { return a + b }

var _ = add
`

func TestExitCodeUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		// -format, -baseline and -update-baseline went with the SARIF/JSON
		// writers and the baseline: each is now an unknown flag, even
		// with a value that used to be valid.
		{"unknown format", []string{"-format", "text"}},
		{"baseline flag", []string{"-baseline", "x"}},
		{"update without baseline", []string{"-update-baseline"}},
		{"unknown rule", []string{"-rules", "nosuchrule"}},
		{"missing root", []string{"-root", filepath.Join(t.TempDir(), "nope")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != exitUsage {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, exitUsage, stderr)
			}
			if stderr == "" {
				t.Error("usage error produced no diagnostic on stderr")
			}
		})
	}
}

func TestExitCodeNoPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{})
	code, _, stderr := runCLI(t, "-root", dir)
	if code != exitUsage {
		t.Errorf("exit = %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr, "no Go packages") {
		t.Errorf("stderr = %q, want mention of no Go packages", stderr)
	}
}

func TestListPrintsRegistry(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != exitClean {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, r := range lint.Registry {
		if !strings.Contains(stdout, r.Name) || !strings.Contains(stdout, r.Doc) {
			t.Errorf("-list output missing rule %q with its doc", r.Name)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if f := strings.Fields(line); len(f) < 3 || f[1] != "error" {
			t.Errorf("-list line is not `name severity doc`: %q", line)
		}
	}
}

func TestFindingsGateAndOrdering(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"b.go": sleepSrc,
		"a.go": strings.ReplaceAll(sleepSrc, "wait", "waitA"),
	})
	code, stdout, _ := runCLI(t, "-root", dir)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d (stdout: %s)", code, exitFindings, stdout)
	}
	// Findings must come out sorted by file, so a.go precedes b.go.
	ia, ib := strings.Index(stdout, "a.go"), strings.Index(stdout, "b.go")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("findings not sorted by file:\n%s", stdout)
	}
}

func TestRulesFilter(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": sleepSrc})
	// Filtering to an unrelated rule must turn the violation invisible.
	code, stdout, stderr := runCLI(t, "-root", dir, "-rules", "nopanic")
	if code != exitClean {
		t.Errorf("-rules nopanic exit = %d, want 0 (stdout: %s stderr: %s)", code, stdout, stderr)
	}
	code, _, _ = runCLI(t, "-root", dir, "-rules", "sleepsync")
	if code != exitFindings {
		t.Errorf("-rules sleepsync exit = %d, want %d", code, exitFindings)
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": cleanSrc})
	code, stdout, stderr := runCLI(t, "-root", dir)
	if code != exitClean {
		t.Errorf("exit = %d, want 0 (stdout: %s stderr: %s)", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module produced output: %q", stdout)
	}
}
