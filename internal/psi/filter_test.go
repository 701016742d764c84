package psi

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
)

// TestFilterSound checks the candidate filter on the funnel shapes
// (funnelGraphs: one edge-labelled, one dense, one sparse and
// label-rich), with queries induced from the data graph itself and from
// another graph of its shape, which the data graph mostly cannot match.
// Every node the naive oracle finds valid for some pivot is admitted
// (each query node takes its turn as the pivot, so every set C(v) is
// checked), and the filtered evaluator's verdicts equal the unfiltered
// one's in both modes, with and without the super-optimistic pass,
// unbounded and under a small work ceiling (where both finish).
func TestFilterSound(t *testing.T) {
	var refused, bounded int64
	var work Stats
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := funnelGraphs[seed%int64(len(funnelGraphs))]
		g := funnelGraph(shape.n, shape.m, shape.labels, shape.edgeLabels, rng)
		src := g
		if seed%2 == 1 {
			src = funnelGraph(shape.n, shape.m, shape.labels, shape.edgeLabels, rng)
		}
		comp := graph.ConnectedComponent(src, graph.NodeID(rng.Intn(src.NumNodes())))
		size := min(len(comp), 3+rng.Intn(3))
		if size < 2 {
			continue
		}
		sub, _, err := graph.InducedSubgraph(src, comp[:size])
		if err != nil {
			t.Fatal(err)
		}
		for pivot := graph.NodeID(0); int(pivot) < size; pivot++ {
			q, err := graph.NewQuery(sub, pivot)
			if err != nil {
				t.Fatal(err)
			}
			e := newEval(t, g, q)
			f := e.Filtered()
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				if !f.Admits(u) {
					if graphtest.ReferencePSI(g, q, u) {
						t.Fatalf("seed %d pivot %d: valid node %d is not admitted", seed, pivot, u)
					}
					if g.Label(u) == q.G.Label(pivot) {
						refused++
					}
				}
			}
			if pivot != 0 {
				continue // the sets do not depend on the pivot: search once
			}
			c := plan.MustCompile(q, plan.Heuristic(q, g))
			for _, mode := range []Mode{Optimistic, Pessimistic} {
				for _, super := range []bool{false, true} {
					for _, maxSteps := range []int64{0, 6} {
						st, fst := NewState(q.Size()), NewState(q.Size())
						for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
							want, werr := e.evaluate(st, c, u, mode, super, Limits{MaxSteps: maxSteps})
							got, gerr := f.evaluate(fst, c, u, mode, super, Limits{MaxSteps: maxSteps})
							if maxSteps == 0 && (werr != nil || gerr != nil) {
								t.Fatalf("seed %d %v super=%v node %d: unbounded evaluation failed: %v, %v", seed, mode, super, u, werr, gerr)
							}
							if werr != nil || gerr != nil {
								continue
							}
							if maxSteps > 0 {
								bounded++
							}
							if got != want {
								t.Fatalf("seed %d %v super=%v maxSteps=%d node %d: filtered %v, unfiltered %v", seed, mode, super, maxSteps, u, got, want)
							}
						}
						work.Add(fst.Stats())
					}
				}
			}
		}
	}
	if refused == 0 || work.FilterPrunes == 0 {
		t.Errorf("the filter refused %d pivot candidates and pruned %d search candidates: the graphs do not exercise it", refused, work.FilterPrunes)
	}
	if bounded == 0 {
		t.Error("no bounded evaluation finished on both evaluators")
	}
}
