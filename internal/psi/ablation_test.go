package psi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestNoSigPruneEquivalent: disabling Proposition 3.2 pruning must never
// change results, only work done.
func TestNoSigPruneEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(16, 40, 3, seed)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		if len(comp) < 4 {
			return true
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:4])
		if err != nil || !graph.IsConnected(sub) {
			return true
		}
		q, _ := graph.NewQuery(sub, 0)
		e := newEvalQuiet(g, q)
		c, err := plan.Compile(q, plan.Heuristic(q, g))
		if err != nil {
			return false
		}
		st := NewState(q.Size())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			with, err := e.Evaluate(st, c, u, Pessimistic, Limits{})
			if err != nil {
				return false
			}
			without, err := e.EvaluateNoSigPrune(st, c, u, Limits{})
			if err != nil {
				return false
			}
			if with != without {
				t.Logf("seed %d node %d: pruned=%v unpruned=%v", seed, u, with, without)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestNoSuperEquivalent: skipping the super-optimistic pass must never
// change results.
func TestNoSuperEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(18, 50, 2, seed)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		if len(comp) < 4 {
			return true
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:4])
		if err != nil || !graph.IsConnected(sub) {
			return true
		}
		q, _ := graph.NewQuery(sub, 0)
		e := newEvalQuiet(g, q)
		c, err := plan.Compile(q, plan.Heuristic(q, g))
		if err != nil {
			return false
		}
		st := NewState(q.Size())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			with, err := e.Evaluate(st, c, u, Optimistic, Limits{})
			if err != nil {
				return false
			}
			without, err := e.EvaluateNoSuper(st, c, u, Optimistic, Limits{})
			if err != nil {
				return false
			}
			if with != without {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ablationFixture is the ablation benchmarks' workload: Human generated
// at 1/8 of its size, the size-5 query that follows a size-4 one from a
// seed-42 walk, and its first 64 pivot candidates.
func ablationFixture(b *testing.B) (*Evaluator, *plan.Compiled, []graph.NodeID) {
	b.Helper()
	spec, err := gen.ScaledSpec("human", 8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var q graph.Query
	for _, size := range []int{4, 5} {
		if q, err = workload.ExtractQuery(g, size, rng); err != nil {
			b.Fatal(err)
		}
	}
	c, err := plan.Compile(q, plan.Heuristic(q, g))
	if err != nil {
		b.Fatal(err)
	}
	candidates := g.NodesWithLabel(q.G.Label(q.Pivot))
	return newEvalQuiet(g, q), c, candidates[:min(len(candidates), 64)]
}

// benchmarkCandidates runs eval on every candidate per iteration.
func benchmarkCandidates(b *testing.B, name string, ev *Evaluator, candidates []graph.NodeID, eval func(*State, graph.NodeID) (bool, error)) {
	b.Run(name, func(b *testing.B) {
		st := NewState(ev.query.Size())
		for i := 0; i < b.N; i++ {
			for _, u := range candidates {
				if _, err := eval(st, u); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationSuperOptimistic measures the capped first pass's
// value when evaluating candidates optimistically.
func BenchmarkAblationSuperOptimistic(b *testing.B) {
	ev, c, candidates := ablationFixture(b)
	benchmarkCandidates(b, "with-super", ev, candidates, func(st *State, u graph.NodeID) (bool, error) {
		return ev.Evaluate(st, c, u, Optimistic, Limits{})
	})
	benchmarkCandidates(b, "without-super", ev, candidates, func(st *State, u graph.NodeID) (bool, error) {
		return ev.EvaluateNoSuper(st, c, u, Optimistic, Limits{})
	})
}

// BenchmarkAblationSignaturePruning isolates Proposition 3.2's value in
// the pessimistic method.
func BenchmarkAblationSignaturePruning(b *testing.B) {
	ev, c, candidates := ablationFixture(b)
	benchmarkCandidates(b, "with-pruning", ev, candidates, func(st *State, u graph.NodeID) (bool, error) {
		return ev.Evaluate(st, c, u, Pessimistic, Limits{})
	})
	benchmarkCandidates(b, "without-pruning", ev, candidates, func(st *State, u graph.NodeID) (bool, error) {
		return ev.EvaluateNoSigPrune(st, c, u, Limits{})
	})
}

// BenchmarkEvaluateOptimistic / Pessimistic measure single-node
// evaluation cost on the Figure 1 fixture (microbenchmark baseline).
func benchmarkEvaluate(b *testing.B, mode Mode) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	e := newEvalQuiet(g, q)
	c := plan.MustCompile(q, plan.Plan{0, 1, 2})
	st := NewState(q.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(st, c, 0, mode, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateOptimistic(b *testing.B)  { benchmarkEvaluate(b, Optimistic) }
func BenchmarkEvaluatePessimistic(b *testing.B) { benchmarkEvaluate(b, Pessimistic) }

func BenchmarkRace(b *testing.B) {
	g := graphtest.Figure1Data()
	q := graphtest.Figure1Query()
	e := newEvalQuiet(g, q)
	c := plan.MustCompile(q, plan.Plan{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Race(c, 0, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}
