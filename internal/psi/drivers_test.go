package psi

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/obs"
	"repro/internal/signature"
)

// TestEvaluateAllThreshold checks the threshold count against the full
// sweep B on generated instances, for every strategy and each threshold
// t in 1..|B|+1. The bindings are always a prefix of B and reach t
// exactly when |B| >= t. A run that reaches t returns B's first t and
// stops right after the t-th; one that cannot stops once the unexamined
// candidates could not make up the difference. No run examines more
// candidates than the sweep.
func TestEvaluateAllThreshold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(18, 40, 2, seed)
		comp := graph.ConnectedComponent(g, graph.NodeID(rng.Intn(g.NumNodes())))
		size := 2 + rng.Intn(3)
		if len(comp) < size {
			return true
		}
		sub, _, err := graph.InducedSubgraph(g, comp[:size])
		if err != nil || !graph.IsConnected(sub) {
			return true
		}
		q, err := graph.NewQuery(sub, graph.NodeID(rng.Intn(size)))
		if err != nil {
			return false
		}
		e := newEval(t, g, q)
		candidates := g.NodesWithLabel(q.G.Label(q.Pivot))
		for _, s := range []Strategy{OptimisticOnly, PessimisticOnly, TwoThreaded} {
			full, err := EvaluateAll(e, s, 0, time.Time{})
			if err != nil || full.Candidates != len(candidates) {
				t.Logf("seed %d %v: full sweep err %v, %d of %d candidates", seed, s, err, full.Candidates, len(candidates))
				return false
			}
			b := full.Bindings
			for th := 1; th <= len(b)+1; th++ {
				res, err := EvaluateAll(e, s, th, time.Time{})
				if err != nil {
					return false
				}
				reached := len(res.Bindings) >= th
				ok := len(res.Bindings) <= len(b) && slices.Equal(res.Bindings, b[:len(res.Bindings)]) && reached == (len(b) >= th) &&
					res.Candidates <= full.Candidates
				if reached {
					ok = ok && len(res.Bindings) == th && res.Candidates == slices.Index(candidates, b[th-1])+1
				} else {
					ok = ok && len(res.Bindings)+len(candidates)-res.Candidates < th
				}
				if !ok {
					t.Logf("seed %d %v threshold %d: bindings %v of %v, %d of %d candidates",
						seed, s, th, res.Bindings, b, res.Candidates, full.Candidates)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateAllDeadlineKeepsWork checks that a fixed-strategy run cut
// by its deadline still reports the work it did in Result.Stats and
// publishes exactly that work to the registry.
func TestEvaluateAllDeadlineKeepsWork(t *testing.T) {
	// A 24-clique of A nodes and an 8-node path query whose last node is
	// a B: every A-path extends, none ends at a B, and the optimistic
	// search (no signature pruning) walks A-paths until the deadline.
	const n = 24
	b := graph.NewBuilder(n, n*(n-1)/2)
	for i := 0; i < n; i++ {
		b.AddNode(0)
	}
	for u := graph.NodeID(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	qb := graph.NewBuilder(8, 7)
	for i := 0; i < 7; i++ {
		qb.AddNode(0)
	}
	qb.AddNode(1)
	for i := graph.NodeID(0); i < 7; i++ {
		if err := qb.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	q, err := graph.NewQuery(qb.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(g, q, signature.MustBuild(g, 2, 2, signature.Matrix), nil)
	if err != nil {
		t.Fatal(err)
	}

	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	before := obs.PSIRecursions.Value()
	res, err := EvaluateAll(e, OptimisticOnly, 0, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res.Stats.Recursions == 0 || res.Stats.Deadlines != 1 {
		t.Errorf("aborted run reports %+v, want recursions and one deadline", res.Stats)
	}
	if got := obs.PSIRecursions.Value() - before; got != res.Stats.Recursions {
		t.Errorf("psi_recursions_total grew by %d, the run reports %d", got, res.Stats.Recursions)
	}
}
