package psi

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/match"
	"repro/internal/plan"
	"repro/internal/signature"
)

// fuzzInstance decodes fuzz bytes into a small data graph and a
// connected pivoted query induced from it. Returns ok=false for inputs
// that do not decode to a usable instance (the fuzzer skips those).
func fuzzInstance(data []byte) (*graph.Graph, graph.Query, bool) {
	if len(data) < 8 {
		return nil, graph.Query{}, false
	}
	n := 3 + int(data[0])%6         // 3..8 data nodes
	numLabels := 1 + int(data[1])%3 // 1..3 node labels
	if len(data) < 2+n {
		return nil, graph.Query{}, false
	}
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(int(data[2+i]) % numLabels))
	}
	for rest := data[2+n:]; len(rest) >= 2; rest = rest[2:] {
		u := graph.NodeID(int(rest[0]) % n)
		v := graph.NodeID(int(rest[1]) % n)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			return nil, graph.Query{}, false
		}
	}
	g, err := b.Build()
	if err != nil || g.NumEdges() == 0 {
		return nil, graph.Query{}, false
	}
	// The query is an induced connected subgraph of the data graph, so
	// at least one binding is guaranteed to exist.
	start := graph.NodeID(int(data[2]) % n)
	comp := graph.ConnectedComponent(g, start)
	size := 2 + int(data[3])%3 // 2..4 query nodes
	if len(comp) < size {
		return nil, graph.Query{}, false
	}
	sub, _, err := graph.InducedSubgraph(g, comp[:size])
	if err != nil || !graph.IsConnected(sub) || sub.NumEdges() == 0 {
		return nil, graph.Query{}, false
	}
	q, err := graph.NewQuery(sub, graph.NodeID(int(data[4])%size))
	if err != nil {
		return nil, graph.Query{}, false
	}
	return g, q, true
}

// FuzzMatchVsReference cross-checks independent implementations on
// random small instances: the optimistic and pessimistic PSI evaluators
// over matrix and over exploration signatures, each unfiltered and
// Filtered (whose Admits must hold for every valid node), the
// full-enumeration backtracking engine projected to the pivot, and the
// naive reference oracle. All must agree on every data node.
func FuzzMatchVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 1, 2, 2, 3, 0, 2, 3, 4, 1, 3})
	f.Add([]byte{3, 2, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add([]byte{5, 0, 7, 7, 7, 7, 7, 7, 7, 7, 0, 1, 1, 2, 0, 2, 2, 4, 4, 6})
	f.Add([]byte{1, 2, 1, 0, 2, 2, 1, 0, 3, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q, ok := fuzzInstance(data)
		if !ok {
			t.Skip()
		}
		invariant.Enable(true) // deep-check every witness the evaluators find

		width := g.NumLabels()
		if w := q.G.NumLabels(); w > width {
			width = w
		}
		// The query side is derived from each construction's data side.
		var evs []*Evaluator
		for _, method := range []signature.Method{signature.Matrix, signature.Exploration} {
			e, err := NewEvaluator(g, q, signature.MustBuild(g, signature.DefaultDepth, width, method), nil)
			if err != nil {
				t.Fatalf("NewEvaluator(%v): %v", method, err)
			}
			evs = append(evs, e, e.Filtered())
		}
		c, err := plan.Compile(q, plan.Heuristic(q, g))
		if err != nil {
			t.Fatalf("plan.Compile: %v", err)
		}

		bt, err := match.NewBacktracking(g, q.G)
		if err != nil {
			t.Fatalf("NewBacktracking: %v", err)
		}
		bindings, _, err := match.PivotBindings(bt, q, match.Budget{})
		if err != nil {
			t.Fatalf("PivotBindings: %v", err)
		}
		fromBacktrack := make(map[graph.NodeID]bool, len(bindings))
		for _, u := range bindings {
			fromBacktrack[u] = true
		}

		st := NewState(q.Size())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			want := referencePSI(g, q, u)
			if fromBacktrack[u] != want {
				t.Fatalf("node %d: backtrack=%v reference=%v (n=%d, qsize=%d)",
					u, fromBacktrack[u], want, g.NumNodes(), q.Size())
			}
			for _, e := range evs {
				if want && !e.Admits(u) {
					t.Fatalf("node %d %v: valid, but not admitted (n=%d, qsize=%d)", u, e.DataSignatures().Method(), g.NumNodes(), q.Size())
				}
				for _, mode := range []Mode{Optimistic, Pessimistic} {
					got, err := e.Evaluate(st, c, u, mode, Limits{})
					if err != nil {
						t.Fatalf("node %d %v mode %v: %v", u, e.DataSignatures().Method(), mode, err)
					}
					if got != want {
						t.Fatalf("node %d %v mode %v: evaluator=%v reference=%v (n=%d, qsize=%d)",
							u, e.DataSignatures().Method(), mode, got, want, g.NumNodes(), q.Size())
					}
				}
			}
		}
	})
}
