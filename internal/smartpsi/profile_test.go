package smartpsi

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/psi"
)

// profileFixture builds a labeled random graph big enough to push
// Evaluate down the ML path, plus a 3-node path query pivoted at its
// label-0 end.
func profileFixture(t *testing.T) (*Engine, graph.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	const n = 300
	b := graph.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(i % 3))
	}
	for i := 1; i < n; i++ {
		if err := b.AddEdge(graph.NodeID(i-1), graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for b.NumEdges() < 3*n {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	e, err := NewEngine(g, Options{Seed: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	qb := graph.NewBuilder(3, 2)
	qb.AddNode(0)
	qb.AddNode(1)
	qb.AddNode(2)
	if err := qb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := qb.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	q, err := graph.NewQuery(qb.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

// TestObsQueryProfileEndToEnd runs a real ML-path query with collection
// and deep checking enabled and cross-checks the execution profile
// against the Result: ladder rungs vs flip/fallback counters, the cache
// split vs the decision picks, the decision/training headers, the
// monotone candidate funnel, and the flight-recorder retention.
func TestObsQueryProfileEndToEnd(t *testing.T) {
	prevObs := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prevObs)
	prevInv := invariant.Enabled()
	invariant.Enable(true)
	defer invariant.Enable(prevInv)

	e, q := profileFixture(t)
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedML {
		t.Fatal("fixture too small: query did not take the ML path")
	}
	if res.Profile == nil {
		t.Fatal("Result.Profile is nil with collection enabled")
	}
	snap := res.Profile.Snapshot()
	if !snap.Finished {
		t.Error("profile not finished")
	}
	if snap.Method != "ml" {
		t.Errorf("profile method = %q, want \"ml\"", snap.Method)
	}
	if snap.Candidates != res.Candidates {
		t.Errorf("profile candidates = %d, Result has %d", snap.Candidates, res.Candidates)
	}
	if snap.Bindings != len(res.Bindings) {
		t.Errorf("profile bindings = %d, Result has %d", snap.Bindings, len(res.Bindings))
	}
	if snap.TrainedNodes != res.TrainedNodes || snap.PlanClasses != res.PlanClasses {
		t.Errorf("profile training = %d nodes / %d classes, Result has %d/%d",
			snap.TrainedNodes, snap.PlanClasses, res.TrainedNodes, res.PlanClasses)
	}
	if snap.CacheHits != res.CacheHits || snap.CacheMisses != res.CacheMisses {
		t.Errorf("profile cache = %d/%d, Result has %d/%d",
			snap.CacheHits, snap.CacheMisses, res.CacheHits, res.CacheMisses)
	}
	if !reflect.DeepEqual(snap.Ladder, res.Ladder[:]) || !reflect.DeepEqual(snap.PlanChosen, res.PlanPicks) ||
		snap.ModePredicted["optimistic"] != res.ModePicks[psi.Optimistic] ||
		snap.ModePredicted["pessimistic"] != res.ModePicks[psi.Pessimistic] {
		t.Errorf("profile decisions = ladder %v plans %v modes %v, Result has %v / %v / %v",
			snap.Ladder, snap.PlanChosen, snap.ModePredicted, res.Ladder, res.PlanPicks, res.ModePicks)
	}
	// One decision per non-training candidate: every decision is a cache
	// hit or miss, and every one enters rung 1.
	picks := res.ModePicks[0] + res.ModePicks[1]
	if picks != res.CacheHits+res.CacheMisses || picks != res.Ladder[obs.LadderPredicted].Entered {
		t.Errorf("mode picks = %d, cache hits+misses = %d, rung-1 entered = %d; want all equal",
			picks, res.CacheHits+res.CacheMisses, res.Ladder[obs.LadderPredicted].Entered)
	}

	// Ladder vs the recovery counters Run copies from it: every
	// non-training candidate enters rung 1; flips enter rung 2; fallbacks
	// enter rung 3.
	nonTraining := int64(res.Candidates - res.TrainedNodes)
	if got := snap.Ladder[obs.LadderPredicted].Entered; got != nonTraining {
		t.Errorf("rung 1 entered = %d, want %d (candidates − training set)", got, nonTraining)
	}
	if got := snap.Ladder[obs.LadderOpposite].Entered; got != res.Flips {
		t.Errorf("rung 2 entered = %d, want Result.Flips = %d", got, res.Flips)
	}
	if got := snap.Ladder[obs.LadderHeuristic].Entered; got != res.Fallbacks {
		t.Errorf("rung 3 entered = %d, want Result.Fallbacks = %d", got, res.Fallbacks)
	}

	// Candidate funnel: derived from the Result's rows, monotone
	// non-increasing per depth, and consistent with the evaluator's
	// aggregate work counters.
	fun := psi.Funnel(res.Depths)
	if len(fun) == 0 {
		t.Fatal("query has no candidate funnel")
	}
	if !reflect.DeepEqual(snap.Funnel, fun) {
		t.Errorf("profile funnel = %v, Result derives %v", snap.Funnel, fun)
	}
	if len(fun) != q.Size() {
		t.Errorf("funnel has %d depths, query has %d nodes", len(fun), q.Size())
	}
	if err := invariant.CheckFunnel(fun); err != nil {
		t.Errorf("funnel violates monotonicity: %v", err)
	}
	tot := obs.FunnelTotals(fun...)
	if tot.Generated == 0 || tot.Matched == 0 {
		t.Errorf("funnel totals = %+v; expected non-empty generated and matched", tot)
	}
	if tot.Generated != res.Work().Candidates {
		t.Errorf("funnel generated = %d, Work().Candidates = %d", tot.Generated, res.Work().Candidates)
	}
	if int64(len(res.Bindings)) > fun[0].Matched {
		t.Errorf("depth-0 matched = %d < %d bindings", fun[0].Matched, len(res.Bindings))
	}

	// Work map mirrors Result.Work() through the statsPublishers table.
	if got := snap.Work["psi_recursions_total"]; got != res.Work().Recursions {
		t.Errorf("work[psi_recursions_total] = %d, want %d", got, res.Work().Recursions)
	}
	if got := snap.Work["psi_matches_total"]; got != res.Work().Matches {
		t.Errorf("work[psi_matches_total] = %d, want %d", got, res.Work().Matches)
	}
	if res.Work().Matches == 0 {
		t.Error("Work.Matches = 0; match counting not wired")
	}

	// The flight recorder must retain the profile.
	if obs.DefaultRecorder.Lookup(snap.ID) == nil {
		t.Error("default flight recorder did not retain the query profile")
	}
}

// TestObsQueryProfileSmallPath pins the non-ML path: method label,
// funnel coverage and outcome for a candidate set below MinTrainNodes.
func TestObsQueryProfileSmallPath(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)

	e, _, _ := ladderFixture(t)
	qb := graph.NewBuilder(2, 1)
	qb.AddNode(0)
	qb.AddNode(1)
	if err := qb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	q, err := graph.NewQuery(qb.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedML {
		t.Fatal("two candidates must not take the ML path")
	}
	snap := res.Profile.Snapshot()
	if snap.Method != "pessimistic-heuristic" {
		t.Errorf("method = %q, want \"pessimistic-heuristic\"", snap.Method)
	}
	if snap.Bindings != 1 {
		t.Errorf("bindings = %d, want 1", snap.Bindings)
	}
	fun := psi.Funnel(res.Depths)
	if obs.FunnelTotals(fun...).Generated == 0 {
		t.Fatal("small path recorded no funnel")
	}
	if err := invariant.CheckFunnel(fun); err != nil {
		t.Errorf("funnel violates monotonicity: %v", err)
	}
	if fun[0].Generated != 2 {
		t.Errorf("depth-0 generated = %d, want 2 (both label-0 candidates)", fun[0].Generated)
	}
}

// TestObsQueryProfileDisabled pins that with collection off no profile
// is allocated and evaluation still works.
func TestObsQueryProfileDisabled(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(false)
	defer obs.Enable(prev)

	e, q := profileFixture(t)
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Error("Result.Profile must be nil with collection disabled")
	}
	// The nil profile must still render (nil-safe ProfileData).
	if d := res.Profile.Snapshot(); d.ID != 0 {
		t.Errorf("nil profile snapshot = %+v", d)
	}
	if res.Work().Recursions == 0 {
		t.Error("work counters must accumulate regardless of collection")
	}
}
