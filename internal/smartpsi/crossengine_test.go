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

// TestAgainstTurboIsoPlus cross-validates the whole SmartPSI pipeline
// against TurboIso+ — a completely independent engine (region-based
// full-iso machinery, no signatures, no ML) — on a denser generated
// dataset at medium scale.
func TestAgainstTurboIsoPlus(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale cross-engine check")
	}
	spec, err := gen.ScaledSpec("human", 4)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(spec)
	e, err := NewEngine(g, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for size := 4; size <= 5; size++ {
		for i := 0; i < 2; i++ {
			q, err := workload.ExtractQuery(g, size, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			tip, err := match.NewTurboIsoPlus(g, q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := tip.PivotBindings(match.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if !equalNodes(res.Bindings, want) {
				t.Fatalf("size %d query %d: SmartPSI %d bindings, TurboIso+ %d",
					size, i, len(res.Bindings), len(want))
			}
		}
	}
}

func equalNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
		if !equalNodes(o.bindings, want[o.i]) {
			t.Fatalf("query %d: concurrent result differs", o.i)
		}
	}
}
