package smartpsi

import (
	"math/rand"
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

// TestRepeatEvaluationsDeterministic: evaluating the same query twice on
// the same engine gives identical results.
func TestRepeatEvaluationsDeterministic(t *testing.T) {
	spec, err := gen.ScaledSpec("cora", 2)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(spec)
	e, err := NewEngine(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	q, err := workload.ExtractQuery(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Bindings) != len(r2.Bindings) {
		t.Fatalf("repeat evaluation: %d vs %d bindings", len(r1.Bindings), len(r2.Bindings))
	}
	for i := range r1.Bindings {
		if r1.Bindings[i] != r2.Bindings[i] {
			t.Fatal("repeat evaluation produced different bindings")
		}
	}
}
