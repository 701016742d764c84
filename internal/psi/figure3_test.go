package psi

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
)

// TestFigure3OptimisticOrdering reproduces the behaviour of the paper's
// Figure 3: when evaluating a valid node, the optimistic method's
// score-descending candidate ordering reaches the match with fewer
// traversals than unordered evaluation.
//
// Construction: pivot a0 (A) has ten decoy B neighbors whose C neighbor
// does not close the triangle, and one good B neighbor (the highest
// node id, so unordered label-sorted iteration visits it last) whose C
// neighbor is also adjacent to a0. The good B's neighborhood is richer
// (its C connects back to a0), giving it the highest satisfiability
// score, so the optimistic method tries it first.
func TestFigure3OptimisticOrdering(t *testing.T) {
	b := graph.NewBuilder(64, 128)
	a0 := b.AddNode(graphtest.LabelA)
	const decoys = 10
	for i := 0; i < decoys; i++ {
		d := b.AddNode(graphtest.LabelB)
		c := b.AddNode(graphtest.LabelC)
		// The dangling A keeps the decoy's signature rich enough to
		// satisfy the query node (so the pessimist cannot prune it) while
		// the triangle still fails on the a0–c adjacency check.
		dummy := b.AddNode(graphtest.LabelA)
		for _, e := range [][2]graph.NodeID{{a0, d}, {d, c}, {c, dummy}} {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	good := b.AddNode(graphtest.LabelB) // highest B id
	cGood := b.AddNode(graphtest.LabelC)
	// Two A's reachable through cGood give the good branch a strictly
	// higher satisfiability score than the decoys.
	dummyGood := b.AddNode(graphtest.LabelA)
	for _, e := range [][2]graph.NodeID{{a0, good}, {good, cGood}, {a0, cGood}, {cGood, dummyGood}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	q := graphtest.Figure1Query() // A-B-C triangle, pivot A
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Plan{0, 1, 2})

	// Optimistic without the super-optimistic cap (the cap would slice
	// the candidate list before sorting, which is a separate mechanism).
	stOpt := NewState(q.Size())
	okOpt, err := e.EvaluateNoSuper(stOpt, c, a0, Optimistic, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stPess := NewState(q.Size())
	okPess, err := e.Evaluate(stPess, c, a0, Pessimistic, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !okOpt || !okPess {
		t.Fatalf("a0 should be valid (opt=%v pess=%v)", okOpt, okPess)
	}
	// The optimist recurses straight into the good branch; the pessimist
	// (no ordering, decoy signatures satisfy the query node since their
	// neighborhoods contain A and C) wades through the decoys first.
	if stOpt.Stats().Recursions >= stPess.Stats().Recursions {
		t.Errorf("optimistic recursions %d >= pessimistic %d; ordering gave no benefit",
			stOpt.Stats().Recursions, stPess.Stats().Recursions)
	}
}

// TestFigure4PessimisticPruning reproduces the behaviour of the paper's
// Figure 4: on an invalid node the pessimist reaches its verdict by
// signature pruning without paying the optimist's score-and-sort
// overhead.
func TestFigure4PessimisticPruning(t *testing.T) {
	// Same structure as Figure 3's fixture, but the evaluated pivot
	// `bad` connects only to decoy B's — no closing triangle exists.
	b := graph.NewBuilder(64, 128)
	bad := b.AddNode(graphtest.LabelA)
	const decoys = 10
	for i := 0; i < decoys; i++ {
		d := b.AddNode(graphtest.LabelB)
		c := b.AddNode(graphtest.LabelC)
		dummy := b.AddNode(graphtest.LabelA)
		for _, e := range [][2]graph.NodeID{{bad, d}, {d, c}, {c, dummy}} {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A C neighbor keeps bad's own signature satisfiable (it needs a C
	// within reach) without closing any triangle.
	cFar := b.AddNode(graphtest.LabelC)
	if err := b.AddEdge(bad, cFar); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	q := graphtest.Figure1Query()
	e := newEval(t, g, q)
	c := plan.MustCompile(q, plan.Plan{0, 1, 2})

	stOpt := NewState(q.Size())
	okOpt, err := e.EvaluateNoSuper(stOpt, c, bad, Optimistic, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stPess := NewState(q.Size())
	okPess, err := e.Evaluate(stPess, c, bad, Pessimistic, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if okOpt || okPess {
		t.Fatalf("bad should be invalid (opt=%v pess=%v)", okOpt, okPess)
	}
	if stPess.Stats().Sorts != 0 || stPess.Stats().ScoreCalcs != 0 {
		t.Errorf("pessimist paid ordering costs: %+v", stPess.Stats())
	}
	opt := stOpt.Stats()
	if opt.ScoreCalcs == 0 {
		t.Errorf("optimist computed no scores on the invalid node: %+v", opt)
	}
	if stPess.Stats().Recursions > opt.Recursions {
		t.Errorf("pessimist recursed more (%d) than the optimist (%d)",
			stPess.Stats().Recursions, opt.Recursions)
	}
}
