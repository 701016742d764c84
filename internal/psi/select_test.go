package psi

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
)

// TestOptimisticSelectMatchesSort: stepping through a candidate list
// with nextOptimistic visits it in exactly the order of sorting it all
// up front (score descending, node ascending), however far the walk
// goes, on random lists with many tied scores; it sorts a tail once,
// only when the walk passes the selected candidates and more than one
// is left.
func TestOptimisticSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(12)
		levels := 1 + rng.Intn(4) // few distinct scores: many ties
		cs := make([]scored, n)
		for i, node := range rng.Perm(n) {
			cs[i] = scored{node: graph.NodeID(node), score: float64(rng.Intn(levels)) / 4}
		}
		want := slices.Clone(cs)
		slices.SortFunc(want, func(a, b scored) int { // reference: sort everything
			if c := cmp.Compare(b.score, a.score); c != 0 {
				return c
			}
			return cmp.Compare(a.node, b.node)
		})
		got := slices.Clone(cs)
		stop := rng.Intn(n + 1) // how far the search gets
		sorts := 0
		for i := 0; i < stop; i++ {
			if nextOptimistic(got, i) {
				sorts++
			}
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d is %v, want %v (list %v)", trial, i, got[i], want[i], cs)
			}
		}
		wantSorts := 0
		if stop > optimisticSelect && n-optimisticSelect > 1 {
			wantSorts = 1
		}
		if sorts != wantSorts {
			t.Fatalf("trial %d: %d tail sorts for %d candidates walked to %d, want %d", trial, sorts, n, stop, wantSorts)
		}
	}
}

// TestOptimisticVerdictsOnGeneratedGraphs: on generated graphs dense
// enough that candidate lists outgrow the selected prefix, the
// optimistic search (the capped super pass then the full pass, and the
// full pass alone) reaches the same verdict as the pessimistic one for
// every candidate, and does sort tails.
func TestOptimisticVerdictsOnGeneratedGraphs(t *testing.T) {
	cases, sorts := 0, int64(0)
	for seed := int64(1); cases < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(60+rng.Intn(60), 400+rng.Intn(800), 1+rng.Intn(3), seed)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		size := 3 + rng.Intn(3)
		if len(comp) < size {
			continue
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:size])
		if err != nil || !graph.IsConnected(sub) {
			continue
		}
		q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(size)))
		if err != nil {
			t.Fatal(err)
		}
		cases++
		e := newEval(t, g, q)
		for pi, p := range enumeratePlans(q, 3) {
			c := plan.MustCompile(q, p)
			st := NewState(len(c.Steps))
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				want, err := e.Evaluate(st, c, u, Pessimistic, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				super, err := e.Evaluate(st, c, u, Optimistic, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				full, err := e.EvaluateNoSuper(st, c, u, Optimistic, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if super != want || full != want {
					t.Fatalf("seed %d plan %d node %d: optimistic %v (no super %v), pessimistic %v", seed, pi, u, super, full, want)
				}
			}
			sorts += st.Stats().Sorts
		}
	}
	if sorts == 0 {
		t.Fatal("no optimistic search sorted a tail: the graphs are too sparse to test it")
	}
}
