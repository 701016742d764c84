package smartpsi

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/psi"
	"repro/internal/workload"
)

// TestEvaluateBudgetExpires: an already-expired budget aborts with
// psi.ErrDeadline on the slow fixture, in both the ML and the
// small-candidate paths. Unbounded runs of the same queries pin which
// path each one takes.
func TestEvaluateBudgetExpires(t *testing.T) {
	g, q := slowFixture(t, 0)
	e, err := NewEngine(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := mustEvaluate(t, e, q); !res.UsedML {
		t.Fatalf("slow fixture: %d candidates took the no-ML path", res.Candidates)
	}
	if _, err := e.EvaluateBudget(q, time.Now().Add(-time.Second)); err != psi.ErrDeadline {
		t.Errorf("expired budget (ML path): err = %v, want ErrDeadline", err)
	}

	// Small-candidate fallback path: the same graph and cycle with the
	// pivot's label on fewer than MinTrainNodes data nodes.
	g2, q2 := slowFixture(t, MinTrainNodes-1)
	e2, err := NewEngine(g2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := mustEvaluate(t, e2, q2); res.UsedML || res.Candidates != MinTrainNodes-1 {
		t.Fatalf("rare pivot: UsedML=%v with %d candidates, want the no-ML path with %d",
			res.UsedML, res.Candidates, MinTrainNodes-1)
	}
	if _, err := e2.EvaluateBudget(q2, time.Now().Add(-time.Second)); err != psi.ErrDeadline {
		t.Errorf("expired budget (fallback path): err = %v, want ErrDeadline", err)
	}
}

// TestEvaluateBudgetGenerous: a generous budget changes nothing.
func TestEvaluateBudgetGenerous(t *testing.T) {
	e := coraEngine(t, Options{Seed: 7})
	rng := rand.New(rand.NewSource(13))
	query, err := workload.ExtractQuery(e.Graph(), 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := e.Evaluate(query)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := e.EvaluateBudget(query, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(unbounded.Bindings) != len(bounded.Bindings) {
		t.Errorf("budget changed result: %d vs %d bindings",
			len(unbounded.Bindings), len(bounded.Bindings))
	}
}
