package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

const testGraph = `t # 0
v 0 A
v 1 B
v 2 C
v 3 C
v 4 B
v 5 A
e 0 1
e 0 2
e 0 3
e 0 4
e 1 2
e 1 3
e 4 2
e 4 3
e 5 4
e 5 2
`

const testQuery = `t # 0
v 0 A
v 1 B
v 2 C
e 0 1
e 1 2
e 0 2
p 0
`

func TestRun(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.lg")
	qp := filepath.Join(dir, "q.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qp, []byte(testQuery), 0o644); err != nil {
		t.Fatal(err)
	}
	// The query has two candidates, too few to train on: model α
	// predicts nothing, so -stats prints no accuracy for it.
	out, err := captureStderr(t, func() error { return run(gp, qp, 1, 1, true, false) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "candidates=2 ") || !strings.Contains(out, "alphaAcc=n/a") {
		t.Errorf("-stats on a no-ML query printed:\n%s\nwant candidates=2 and alphaAcc=n/a", out)
	}
	// Missing files error cleanly.
	if err := run(filepath.Join(dir, "missing.lg"), qp, 1, 1, false, false); err == nil {
		t.Error("missing graph accepted")
	}
	if err := run(gp, filepath.Join(dir, "missing.lg"), 1, 1, false, false); err == nil {
		t.Error("missing query accepted")
	}
	// Malformed query errors cleanly.
	bad := filepath.Join(dir, "bad.lg")
	if err := os.WriteFile(bad, []byte("v x y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(gp, bad, 1, 1, false, false); err == nil {
		t.Error("malformed query accepted")
	}
}

// TestObsRunExplain pins the -explain path: the profile tree goes to
// stderr and carries a monotone candidate funnel for the query.
func TestObsRunExplain(t *testing.T) {
	prev := obs.Enabled()
	defer obs.Enable(prev)

	dir := t.TempDir()
	gp := filepath.Join(dir, "g.lg")
	qp := filepath.Join(dir, "q.lg")
	if err := os.WriteFile(gp, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qp, []byte(testQuery), 0o644); err != nil {
		t.Fatal(err)
	}

	out, runErr := captureStderr(t, func() error { return run(gp, qp, 1, 1, false, true) })
	if runErr != nil {
		t.Fatalf("run(-explain): %v", runErr)
	}
	for _, want := range []string{"decision", "candidate funnel", "generated"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected into a pipe and returns
// what it wrote there.
func captureStderr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = w
	runErr := fn()
	os.Stderr = oldStderr
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}
