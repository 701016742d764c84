package smartpsi

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
)

func TestPlanTimingMaxTime(t *testing.T) {
	pt := newPlanTiming(3)
	// No observations anywhere: the floor applies.
	if got := pt.maxUnits(psi.Optimistic, 0); got != minBudgetUnits {
		t.Errorf("empty maxUnits = %d, want floor %d", got, minBudgetUnits)
	}
	// Direct observation: 2x the average.
	pt.record(psi.Optimistic, 0, 100_000)
	pt.record(psi.Optimistic, 0, 200_000)
	if got := pt.maxUnits(psi.Optimistic, 0); got != 300_000 {
		t.Errorf("maxUnits = %d, want 300000 (2x avg of 150000)", got)
	}
	// Missing mode borrows the other method's average for the plan.
	if got := pt.maxUnits(psi.Pessimistic, 0); got != 300_000 {
		t.Errorf("borrowed maxUnits = %d, want 300000", got)
	}
	// Missing plan falls back to any recorded average.
	if got := pt.maxUnits(psi.Pessimistic, 2); got != 300_000 {
		t.Errorf("fallback maxUnits = %d, want 300000", got)
	}
	// Tiny averages are floored.
	pt2 := newPlanTiming(1)
	pt2.record(psi.Pessimistic, 0, 1)
	if got := pt2.maxUnits(psi.Pessimistic, 0); got != minBudgetUnits {
		t.Errorf("floored maxUnits = %d, want %d", got, minBudgetUnits)
	}
	// A snapshot is a copy: what is added to it does not reach t until
	// t.add folds it in.
	snap := pt2.snapshot()
	snap.record(psi.Pessimistic, 0, 99_999)
	if c := *pt2.cell(psi.Pessimistic, 0); c != (unitSum{1, 1}) {
		t.Errorf("recording into a snapshot changed the original: %+v", c)
	}
	pt2.add(snap)
	if c := *pt2.cell(psi.Pessimistic, 0); c != (unitSum{100_001, 3}) {
		t.Errorf("add: %+v, want sum 100001 over 3", c)
	}
}

// slowFixture builds a bipartite graph of 400 nodes, a complete
// bipartite core on nodes 0..23 in a sparse random rest, plus a 5-cycle
// query. The graph has no odd cycle, so every candidate's search visits
// all its paths of four edges: a few hundred units for most, but ~40k
// for a core node, well over minBudgetUnits and over twice the average,
// so the core preempts at rung 1 and again at rung 2. Every node has
// label 0, except that with rare > 0 data nodes 0..rare-1 and the
// query's pivot have label 1, so the query has rare candidates.
func slowFixture(t *testing.T, rare int) (*graph.Graph, graph.Query) {
	t.Helper()
	const n, core, edges = 400, 24, 800
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(n, edges)
	for i := 0; i < n; i++ {
		if i < rare {
			b.AddNode(1)
		} else {
			b.AddNode(0)
		}
	}
	addEdge := func(u, v int) {
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < core; u += 2 {
		for v := 1; v < core; v += 2 {
			addEdge(u, v)
		}
	}
	for b.NumEdges() < edges {
		u, v := rng.Intn(n), rng.Intn(n)
		if u%2 != v%2 && !b.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
			addEdge(u, v)
		}
	}
	pivot := graph.Label(0)
	if rare > 0 {
		pivot = 1
	}
	return b.MustBuild(), cycleQuery(t, 5, pivot)
}

// cycleQuery returns an n-cycle pivoted at node 0, which has label pivot;
// the others have label 0.
func cycleQuery(t *testing.T, n int, pivot graph.Label) graph.Query {
	t.Helper()
	qb := graph.NewBuilder(n, n)
	qb.AddNode(pivot)
	for i := 1; i < n; i++ {
		qb.AddNode(0)
	}
	for i := 0; i < n; i++ {
		if err := qb.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := graph.NewQuery(qb.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPreemptionRecovers drives evaluateOne directly on a core node with
// an artificially tiny work average, so state 1 and state 2 both time
// out at the floor and the state-3 heuristic fallback must produce the
// (correct) answer.
func TestPreemptionRecovers(t *testing.T) {
	g, q := slowFixture(t, 0)
	e, err := NewEngine(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := psi.NewEvaluator(g, q, e.sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(q, plan.Heuristic(q, g))
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth for one candidate (no odd cycle: invalid).
	st := psi.NewState(q.Size())
	want, err := ev.Evaluate(st, c, 0, psi.Pessimistic, psi.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	w := ladderWorker(ev, []*plan.Compiled{c}, time.Time{})
	w.st = st
	w.timing.record(psi.Optimistic, 0, 1) // the floor applies
	got, err := e.evaluateOne(w, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("preempted evaluation = %v, ground truth %v", got, want)
	}
	flips, fallbacks := w.Ladder[obs.LadderOpposite].Entered, w.Ladder[obs.LadderHeuristic].Entered
	if flips != 1 || fallbacks != 1 || w.st.Stats().Deadlines != 2 {
		t.Errorf("flips %d, fallbacks %d, budget aborts %d; want one of each and two aborts",
			flips, fallbacks, w.st.Stats().Deadlines)
	}
}

// TestPreemptionDisabled: with DisablePreemption no deadline is set and
// the counters stay zero even on the slow fixture.
func TestPreemptionDisabledCounters(t *testing.T) {
	g, q := slowFixture(t, 0)
	e, err := NewEngine(g, Options{Seed: 4, DisablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 || res.Fallbacks != 0 {
		t.Errorf("preemption disabled but flips=%d fallbacks=%d", res.Flips, res.Fallbacks)
	}
}

// TestSweepCapLabelsAlphaOnly: a training node that no plan finishes
// within the sweep cap is labelled by one unbounded heuristic-plan run
// and gives model α a row, but model β none (so there is no model β),
// and keeps no sweep to score model β against.
func TestSweepCapLabelsAlphaOnly(t *testing.T) {
	// K_{30,30} has no odd cycle, so a 5-cycle search from any node
	// visits all ~750k paths of four edges under every plan: over the
	// third round's limit, by when the sweep has passed its cap.
	const side = 30
	b := graph.NewBuilder(2*side, side*side)
	for i := 0; i < 2*side; i++ {
		b.AddNode(0)
	}
	for u := 0; u < side; u++ {
		for v := side; v < 2*side; v++ {
			if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, q := b.MustBuild(), cycleQuery(t, 5, 0)
	e, err := NewEngine(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	art, err := e.prepare(q, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Two candidates train one node (half of them).
	r, order := newRun(e, q)
	r.candidates, r.valid, order = r.candidates[:2], r.valid[:2], order[:2]
	r.enabled = true // sweeps are kept only for a collected query
	trained, err := e.train(art, r, order, rng, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.compiled) < 2 || r.res.Work().Units() < 32*sweepStartUnits {
		t.Fatalf("fixture: %d plans, %d units; want a sweep over several plans past its cap",
			len(art.compiled), r.res.Work().Units())
	}
	if trained != 1 || art.alpha == nil || art.beta != nil {
		t.Errorf("trained %d nodes, α %v, β %v; want one α row and no β", trained, art.alpha != nil, art.beta != nil)
	}
	if n := r.res.Beta.Total; n != 0 {
		t.Errorf("%d model-β predictions scored; a node past the cap keeps no sweep", n)
	}
	if r.valid[order[0]] {
		t.Error("K_{30,30} has no 5-cycle, yet the node was labelled valid")
	}
}
