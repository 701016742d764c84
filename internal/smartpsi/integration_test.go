package smartpsi

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// TestRepeatEvaluationsDeterministic: two fresh engines with the same
// options give the same everything on the same query, at one worker and
// at two: every budget the engine decides by counts work, so labels,
// forests, plan and method picks, flips, fallbacks and work rows cannot
// depend on how fast the machine runs. Only the wall-clock report
// (Ladder[].Nanos) may differ. The slow fixture preempts, so the
// ladder's budgets are exercised.
func TestRepeatEvaluationsDeterministic(t *testing.T) {
	spec, err := gen.ScaledSpec("cora", 2)
	if err != nil {
		t.Fatal(err)
	}
	cora := gen.MustGenerate(spec)
	q, err := workload.ExtractQuery(cora, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	slow, slowQ := slowFixture(t, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		q    graph.Query
	}{{"cora", cora, q}, {"slow", slow, slowQ}} {
		for _, threads := range []int{1, 2} {
			var runs [2]*Result
			for i := range runs {
				e, err := NewEngine(tc.g, Options{Seed: 9, Threads: threads, DisablePreparedCache: true})
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = mustEvaluate(t, e, tc.q)
				for r := range runs[i].Ladder {
					runs[i].Ladder[r].Nanos = 0
				}
			}
			a, b := runs[0], runs[1]
			if !a.UsedML {
				t.Fatalf("%s: the query took the no-ML path", tc.name)
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) || a.TrainedNodes != b.TrainedNodes ||
				a.PlanClasses != b.PlanClasses || !reflect.DeepEqual(a.Bindings, b.Bindings) {
				t.Errorf("%s, %d threads: two runs differ:\n  %+v\n  %+v", tc.name, threads, a.Counts, b.Counts)
			}
			if tc.name == "slow" && (a.Flips == 0 || a.Fallbacks == 0) {
				t.Errorf("slow fixture, %d threads: %d flips, %d fallbacks; want both", threads, a.Flips, a.Fallbacks)
			}
		}
	}
}

// TestConcurrentEvaluate: an Engine is safe for concurrent Evaluate
// calls (the signatures are read-only; per-call state is local).
func TestConcurrentEvaluate(t *testing.T) {
	spec, err := gen.ScaledSpec("cora", 4)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(spec)
	e, err := NewEngine(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	queries := make([]graph.Query, 4)
	for i := range queries {
		q, err := workload.ExtractQuery(g, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	// Sequential ground truth.
	want := make([][]graph.NodeID, len(queries))
	for i, q := range queries {
		res, err := e.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Bindings
	}
	// Concurrent round.
	type out struct {
		i        int
		bindings []graph.NodeID
		err      error
	}
	ch := make(chan out, len(queries))
	for i, q := range queries {
		go func(i int, q graph.Query) {
			res, err := e.Evaluate(q)
			if err != nil {
				ch <- out{i: i, err: err}
				return
			}
			ch <- out{i: i, bindings: res.Bindings}
		}(i, q)
	}
	for range queries {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !slices.Equal(o.bindings, want[o.i]) {
			t.Fatalf("query %d: concurrent result differs", o.i)
		}
	}
}
