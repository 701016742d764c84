package psi

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
)

// MatchSeeds holds the internal/match engines' candidate seeds by
// name. match imports psi, so seeds_test.go, an external test package,
// registers them.
var MatchSeeds = map[string]func(g, q *graph.Graph) func(v, u graph.NodeID) bool{}

// TestFilterSound checks the candidate filter on the funnel shapes
// (funnelGraphs: one edge-labelled, one dense, one sparse and
// label-rich), with queries induced from the data graph itself and from
// another graph of its shape, which the data graph mostly cannot match,
// under each seed NewFilter is given: SmartPSI's (plausible, through
// Filtered and Admits) and the CFL-Match and GraphQL baselines'
// (MatchSeeds). Every node the naive oracle finds valid for some pivot
// is in the pivot's set (each query node takes its turn as the pivot, so
// every set C(v) is checked), and the filtered evaluator's verdicts
// equal the unfiltered one's in both modes, with and without the
// super-optimistic pass, unbounded and under a small work ceiling (where
// both finish).
func TestFilterSound(t *testing.T) {
	seeds := []string{"cfl", "graphql"}
	for _, name := range seeds {
		if MatchSeeds[name] == nil {
			t.Fatalf("match seed %q is not registered", name)
		}
	}
	refused := make(map[string]int64)
	var bounded int64
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
		// The sets do not depend on the pivot: build the baselines' once.
		filters := make(map[string]*Filter, len(seeds))
		for _, name := range seeds {
			filters[name] = NewFilter(g, sub, MatchSeeds[name](g, sub))
		}
		for pivot := graph.NodeID(0); int(pivot) < size; pivot++ {
			q, err := graph.NewQuery(sub, pivot)
			if err != nil {
				t.Fatal(err)
			}
			e := newEval(t, g, q)
			f := e.Filtered()
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				if g.Label(u) != q.G.Label(pivot) {
					continue
				}
				valid := graphtest.ReferencePSI(g, q, u)
				in := map[string]bool{"plausible": f.Admits(u)}
				for name, filter := range filters {
					in[name] = filter.Has(pivot, u)
				}
				for name, ok := range in {
					if ok {
						continue
					}
					if valid {
						t.Fatalf("seed %d pivot %d: valid node %d is not in the %s filter's set", seed, pivot, u, name)
					}
					refused[name]++
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
	for _, name := range append(seeds, "plausible") {
		if refused[name] == 0 {
			t.Errorf("the %s filter refused no pivot candidate: the graphs do not exercise it", name)
		}
	}
	if work.FilterPrunes == 0 {
		t.Error("the filtered searches pruned no candidate: the graphs do not exercise the filter")
	}
	if bounded == 0 {
		t.Error("no bounded evaluation finished on both evaluators")
	}
}
