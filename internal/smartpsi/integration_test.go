package smartpsi

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/workload"
)

// TestEndToEndAgainstEnumeration verifies the whole SmartPSI pipeline
// against ground truth established by full subgraph-isomorphism
// enumeration (an entirely independent code path) on a realistic
// generated dataset. The workload takes both the ML path and the
// small-candidate one.
func TestEndToEndAgainstEnumeration(t *testing.T) {
	spec, err := gen.DefaultSpec("yeast")
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(spec)
	e, err := NewEngine(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	paths := map[bool]int{}
	for size := 3; size <= 6; size++ {
		for i := 0; i < 2; i++ {
			q, err := workload.ExtractQuery(g, size, rng)
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			res, err := e.Evaluate(q)
			if err != nil {
				t.Fatalf("size %d query %d: %v", size, i, err)
			}
			paths[res.UsedML]++
			bt, err := match.NewBacktracking(g, q.G)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := match.PivotBindings(bt, q, match.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(res.Bindings) != len(want) {
				t.Fatalf("size %d query %d: SmartPSI %d bindings, enumeration %d",
					size, i, len(res.Bindings), len(want))
			}
			for j := range want {
				if res.Bindings[j] != want[j] {
					t.Fatalf("size %d query %d: binding %d differs: %d vs %d",
						size, i, j, res.Bindings[j], want[j])
				}
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Errorf("%d queries took the ML path and %d the small-candidate one, want both", paths[true], paths[false])
	}
}

// TestThreadCountsAgree: 1, 2 and 4 worker threads must produce
// identical bindings.
func TestThreadCountsAgree(t *testing.T) {
	spec, err := gen.ScaledSpec("cora", 2)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(spec)
	rng := rand.New(rand.NewSource(8))
	q, err := workload.ExtractQuery(g, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	var first []graph.NodeID
	for _, threads := range []int{1, 2, 4} {
		e, err := NewEngine(g, Options{Seed: 5, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Evaluate(q)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if first == nil {
			first = res.Bindings
			continue
		}
		if len(res.Bindings) != len(first) {
			t.Fatalf("threads=%d: %d bindings, want %d", threads, len(res.Bindings), len(first))
		}
		for i := range first {
			if res.Bindings[i] != first[i] {
				t.Fatalf("threads=%d: binding %d differs", threads, i)
			}
		}
	}
}

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
