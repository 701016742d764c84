package smartpsi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
)

// ladderFixture builds a tiny engine/evaluator pair for driving
// evaluateOne directly. Data graph: A(0)-B(1) plus C(0)-D(2); query:
// X(0)-Y(1) pivoted at X, so A matches and C is signature-prunable.
func ladderFixture(t *testing.T) (*Engine, *psi.Evaluator, []*plan.Compiled) {
	t.Helper()
	b := graph.NewBuilder(4, 2)
	b.AddNode(0)
	b.AddNode(1)
	b.AddNode(0)
	b.AddNode(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	e, err := NewEngine(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	ev, err := psi.NewEvaluator(g, q, e.sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(q, plan.Heuristic(q, g))
	if err != nil {
		t.Fatal(err)
	}
	return e, ev, []*plan.Compiled{c}
}

// ladderWorker builds the per-worker value evaluateOne takes over a
// fresh artifact: no models, an empty decision slot per data node (node
// u's is slot u), a fresh planTiming.
func ladderWorker(ev *psi.Evaluator, compiled []*plan.Compiled, global time.Time) *worker {
	art := &artifact{ev: ev, compiled: compiled, timing: newPlanTiming(len(compiled)),
		decisions: make([]atomic.Uint32, ev.Graph().NumNodes())}
	r := &queryRun{name: "test", enabled: obs.Enabled(), res: &Result{}} // read once, as Run does
	return &worker{art: art, run: r, global: global, st: psi.NewState(2), now: time.Now(),
		timing: newPlanTiming(len(compiled)), learned: newPlanTiming(len(compiled))}
}

var errBoom = errors.New("boom")

// alphaStub is a fitted forest of ml's 20 trees: a margin is a vote
// lead over its NumTrees.
func alphaStub(t *testing.T) *ml.Forest {
	f, err := ml.TrainForest(ml.Dataset{NumClasses: 2, X: [][]float64{{0}, {1}}, Y: []int{0, 1}}, ml.ForestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 20 {
		t.Fatalf("stub forest has %d trees, want 20", f.NumTrees())
	}
	return f
}

// TestObsRecoveryLadderTraceSequences pins the preemptive executor's
// recovery ladder (predicted → opposite mode → heuristic plan) for
// forced-timeout scenarios, using the deterministic evalHook instead of
// real searches and their budgets: the rungs run in order with the right (mode, plan)
// each, and the worker's per-rung ladder tallies (rungs 2 and 3 are the
// flips and fallbacks), cache split and decision picks mirror exactly the
// states that ran. That Run publishes these tallies from the Result is
// TestObsPublishFromResult's job.
func TestObsRecoveryLadderTraceSequences(t *testing.T) {
	type step struct {
		ok  bool
		err error
	}
	// call is one evalHook invocation: the ladder state and what it ran.
	type call struct {
		state   int
		mode    psi.Mode
		planIdx int
	}
	deadline := psi.ErrDeadline
	pess := decision{mode: psi.Pessimistic, planIdx: 0} // what no models predict
	cases := []struct {
		name          string
		states        map[int]step
		cached        *decision // pre-populate the prediction cache
		global        time.Time // global budget (zero: none)
		wantOK        bool
		wantErr       error
		wantCalls     []call
		wantFlips     int64
		wantFallbacks int64
		wantCacheHits int64
		wantCacheMiss int64
	}{
		{
			name:          "state1-answers-valid",
			states:        map[int]step{1: {ok: true}},
			wantOK:        true,
			wantCalls:     []call{{1, psi.Pessimistic, 0}},
			wantCacheMiss: 1,
		},
		{
			name:          "state1-answers-invalid",
			states:        map[int]step{1: {ok: false}},
			wantOK:        false,
			wantCalls:     []call{{1, psi.Pessimistic, 0}},
			wantCacheMiss: 1,
		},
		{
			name:          "timeout-then-flip-recovers",
			states:        map[int]step{1: {err: deadline}, 2: {ok: true}},
			wantOK:        true,
			wantCalls:     []call{{1, psi.Pessimistic, 0}, {2, psi.Optimistic, 0}},
			wantFlips:     1,
			wantCacheMiss: 1,
		},
		{
			name:          "double-timeout-then-heuristic-fallback",
			states:        map[int]step{1: {err: deadline}, 2: {err: deadline}, 3: {ok: true}},
			wantOK:        true,
			wantCalls:     []call{{1, psi.Pessimistic, 0}, {2, psi.Optimistic, 0}, {3, psi.Pessimistic, 0}},
			wantFlips:     1,
			wantFallbacks: 1,
			wantCacheMiss: 1,
		},
		{
			name:          "hard-error-aborts-ladder",
			states:        map[int]step{1: {err: errBoom}},
			wantErr:       errBoom,
			wantCalls:     []call{{1, psi.Pessimistic, 0}},
			wantCacheMiss: 1,
		},
		{
			name:          "expired-global-budget-stops-recovery",
			states:        map[int]step{1: {err: deadline}},
			global:        time.Now().Add(-time.Second),
			wantErr:       psi.ErrDeadline,
			wantCalls:     []call{{1, psi.Pessimistic, 0}},
			wantCacheMiss: 1,
		},
		{
			name:          "cached-decision-skips-prediction",
			states:        map[int]step{1: {ok: true}},
			cached:        &pess,
			wantOK:        true,
			wantCalls:     []call{{1, psi.Pessimistic, 0}},
			wantCacheHits: 1,
		},
		{
			// A cached optimistic decision on plan 1: rung 2 flips the
			// method but keeps the plan, rung 3 restores the method and
			// drops to the heuristic plan.
			name:          "cached-plan1-walks-all-rungs",
			states:        map[int]step{1: {err: deadline}, 2: {err: deadline}, 3: {ok: true}},
			cached:        &decision{mode: psi.Optimistic, planIdx: 1},
			wantOK:        true,
			wantCalls:     []call{{1, psi.Optimistic, 1}, {2, psi.Pessimistic, 1}, {3, psi.Optimistic, 0}},
			wantFlips:     1,
			wantFallbacks: 1,
			wantCacheHits: 1,
		},
	}

	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	e, ev, compiled := ladderFixture(t)
	compiled = append(compiled, compiled[0]) // a second plan class; the hook never runs it
	const u = graph.NodeID(0)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls []call
			e.evalHook = func(state int, mode psi.Mode, planIdx int) (bool, error) {
				calls = append(calls, call{state, mode, planIdx})
				s, known := tc.states[state]
				if !known {
					t.Fatalf("ladder reached unexpected state %d", state)
				}
				return s.ok, s.err
			}
			defer func() { e.evalHook = nil }()

			w := ladderWorker(ev, compiled, tc.global)
			dec := pess
			if tc.cached != nil {
				dec = *tc.cached
				w.art.decisions[u].Store(encodeDecision(dec))
			}
			got, err := e.evaluateOne(w, u, int32(u))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && got != tc.wantOK {
				t.Errorf("valid = %v, want %v", got, tc.wantOK)
			}

			if !reflect.DeepEqual(calls, tc.wantCalls) {
				t.Fatalf("hook calls (state, mode, plan) = %v, want %v", calls, tc.wantCalls)
			}
			// Flips and fallbacks are entries into rungs 2 and 3.
			if f, b := w.Ladder[obs.LadderOpposite].Entered, w.Ladder[obs.LadderHeuristic].Entered; f != tc.wantFlips || b != tc.wantFallbacks {
				t.Errorf("flips/fallbacks = %d/%d, want %d/%d", f, b, tc.wantFlips, tc.wantFallbacks)
			}
			if w.CacheHits != tc.wantCacheHits || w.CacheMisses != tc.wantCacheMiss {
				t.Errorf("cache hits/misses = %d/%d, want %d/%d", w.CacheHits, w.CacheMisses, tc.wantCacheHits, tc.wantCacheMiss)
			}
			// A rung-1 resolution of a fresh prediction fills the slot;
			// nothing else may.
			stored, full := decodeDecision(w.art.decisions[u].Load())
			if want := tc.cached != nil || (tc.wantErr == nil && len(tc.wantCalls) == 1); full != want {
				t.Errorf("decision slot filled = %v, want %v", full, want)
			} else if full && stored != dec {
				t.Errorf("decision slot holds %+v, want %+v", stored, dec)
			}
			// The worker's recovery-ladder tallies must mirror the states
			// the hook ran: rung N entered iff state N executed, resolved
			// iff it returned without error.
			for s := 1; s <= obs.NumLadderRungs; s++ {
				var wantEntered, wantResolved int64
				if step, ran := tc.states[s]; ran {
					wantEntered = 1
					if step.err == nil {
						wantResolved = 1
					}
				}
				r := w.Ladder[s-1]
				if r.Entered != wantEntered || r.Resolved != wantResolved {
					t.Errorf("ladder rung %d = entered %d resolved %d, want %d/%d",
						s, r.Entered, r.Resolved, wantEntered, wantResolved)
				}
			}
			// The decision itself is tallied once: one pick of its mode
			// and one of its plan.
			var wantModes [2]int64
			wantModes[dec.mode] = 1
			if w.ModePicks != wantModes || len(w.PlanPicks) != dec.planIdx+1 || w.PlanPicks[dec.planIdx] != 1 {
				t.Errorf("decision tallies = modes %v plans %v, want one %v pick of plan %d",
					w.ModePicks, w.PlanPicks, dec.mode, dec.planIdx)
			}
		})
	}
}

// TestObsScoreAlphaMispredictions checks the worker's model-α cells,
// the Result.Alpha its exit derives from them, and the
// mode_predictions / mode_mispredictions metrics published from it.
func TestObsScoreAlphaMispredictions(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	e, ev, compiled := ladderFixture(t)
	w := ladderWorker(ev, compiled, time.Time{})
	checksBefore, missBefore := obs.SmartModeChecks.Value(), obs.SmartMispredicts.Value()

	// Optimistic prediction means "valid"; actual invalid → mispredict.
	w.art.alpha = alphaStub(t)
	e.scoreAlpha(w, true, decision{mode: psi.Optimistic}, false)
	// Pessimistic prediction means "invalid"; actual invalid → correct.
	e.scoreAlpha(w, true, decision{mode: psi.Pessimistic}, false)
	// No prediction made → not scored.
	e.scoreAlpha(w, false, decision{mode: psi.Pessimistic}, true)

	if w.alpha.Alpha != [2][2]int64{{1, 1}, {0, 0}} {
		t.Errorf("alpha confusion = %v, want [[1 1] [0 0]]", w.alpha.Alpha)
	}
	res := w.run.res
	w.exit()
	res.Counts.Add(&w.Counts)
	if res.Alpha != (AccuracyReport{Correct: 1, Total: 2}) {
		t.Errorf("Result.Alpha = %+v, want 1/2", res.Alpha)
	}
	w.run.finish(nil)
	if d := obs.SmartModeChecks.Value() - checksBefore; d != 2 {
		t.Errorf("smartpsi_mode_predictions_total delta = %d, want 2", d)
	}
	if d := obs.SmartMispredicts.Value() - missBefore; d != 1 {
		t.Errorf("smartpsi_mode_mispredictions_total delta = %d, want 1", d)
	}
}

// TestObsEndToEndMetricsFlow runs a real (small) SmartPSI query with
// collection enabled and checks the work counters flow through
// psi.PublishStats into the default registry, including the
// Proposition 3.2 prune counter.
func TestObsEndToEndMetricsFlow(t *testing.T) {
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

	recBefore := obs.PSIRecursions.Value()
	pruneBefore := obs.PSISigPrunes.Value()
	queriesBefore := obs.SmartQueries.Value()

	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 || res.Bindings[0] != 0 {
		t.Fatalf("bindings = %v, want [0]", res.Bindings)
	}
	if res.Work().Recursions == 0 {
		t.Error("Result.Work().Recursions = 0; per-query work not aggregated")
	}
	if res.Work().SigPrunes == 0 {
		t.Error("Result.Work().SigPrunes = 0; node C should be signature-pruned")
	}
	if d := obs.PSIRecursions.Value() - recBefore; d != res.Work().Recursions {
		t.Errorf("psi_recursions_total delta = %d, want %d", d, res.Work().Recursions)
	}
	if d := obs.PSISigPrunes.Value() - pruneBefore; d != res.Work().SigPrunes {
		t.Errorf("psi_sig_prunes_total delta = %d, want %d", d, res.Work().SigPrunes)
	}
	if d := obs.SmartQueries.Value() - queriesBefore; d != 1 {
		t.Errorf("smartpsi_queries_total delta = %d, want 1", d)
	}

	// The query's one record, its profile, must be sealed and retained
	// by the default flight recorder.
	if res.Profile == nil || !res.Profile.Snapshot().Finished || obs.DefaultRecorder.Lookup(res.Profile.ID()) != res.Profile {
		t.Error("default recorder did not retain the query's finished profile")
	}
}

// TestObsPublishFromResult runs a real ML-path query whose ladder the
// evalHook forces through flips and fallbacks, and checks that Run
// publishes the query's tallies once, from the Result: every smartpsi_*
// counter delta, the one train-time observation, the psi_* work, and
// /modelz's model-α cells. Flips and fallbacks are rungs 2 and 3. Model
// β's tally reaches its two counters (/modelz's β line) once, and the
// query's profile carries it beside the request ID its Run was given.
func TestObsPublishFromResult(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	obs.DefaultModelStats.Reset()
	defer obs.DefaultModelStats.Reset()
	e, q := profileFixture(t)
	// Pivoted mid-path, the query has two matching orders, so model β
	// chooses between two plan classes.
	q, err := graph.NewQuery(q.G, 1)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	e.evalHook = func(state int, _ psi.Mode, _ int) (bool, error) {
		n := calls.Add(1)
		if (state == 1 && n%3 == 0) || (state == 2 && n%2 == 0) {
			return false, psi.ErrDeadline
		}
		return n%2 == 0, nil
	}
	counters := []*obs.Counter{obs.SmartCacheHits, obs.SmartCacheMisses, obs.SmartFlips, obs.SmartFallbacks,
		obs.SmartRecoveries, obs.SmartModeChecks, obs.SmartMispredicts, obs.SmartTrainedNodes, obs.PSIRecursions,
		obs.SmartBetaRankChecks, obs.SmartBetaRankTop1}
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = c.Value()
	}
	trainsBefore := obs.Default.Snapshot().Histograms[obs.SmartTrainSeconds.Name()].Count

	const id, fingerprint = "publish-req", "publish-fingerprint"
	res, err := e.Run(Request{Query: q, ID: id, Fingerprint: fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedML || res.PlanClasses < 2 || res.Flips == 0 || res.Fallbacks == 0 || res.Alpha.Total == 0 || res.TrainedNodes == 0 || res.Beta.Total == 0 {
		t.Fatalf("fixture: used_ml=%v plans=%d flips=%d fallbacks=%d scored=%d trained=%d beta=%d, want ML, two plans and the rest non-zero",
			res.UsedML, res.PlanClasses, res.Flips, res.Fallbacks, res.Alpha.Total, res.TrainedNodes, res.Beta.Total)
	}
	if res.Flips != res.Ladder[obs.LadderOpposite].Entered || res.Fallbacks != res.Ladder[obs.LadderHeuristic].Entered {
		t.Errorf("flips/fallbacks = %d/%d, rungs 2/3 entered %d/%d", res.Flips, res.Fallbacks,
			res.Ladder[obs.LadderOpposite].Entered, res.Ladder[obs.LadderHeuristic].Entered)
	}
	want := []int64{res.CacheHits, res.CacheMisses, res.Flips, res.Fallbacks, res.Flips + res.Fallbacks,
		res.Alpha.Total, res.Alpha.Total - res.Alpha.Correct, int64(res.TrainedNodes), res.Work().Recursions,
		res.Beta.Total, res.Beta.Correct}
	for i, c := range counters {
		if d := c.Value() - before[i]; d != want[i] {
			t.Errorf("%s delta = %d, Result says %d", c.Name(), d, want[i])
		}
	}
	if d := obs.Default.Snapshot().Histograms[obs.SmartTrainSeconds.Name()].Count - trainsBefore; d != 1 {
		t.Errorf("%s observed %d trains, want 1", obs.SmartTrainSeconds.Name(), d)
	}
	d := obs.DefaultModelStats.Snapshot()
	if d.AlphaTotal() != res.Alpha.Total {
		t.Errorf("/modelz scored %d predictions, Result.Alpha.Total = %d", d.AlphaTotal(), res.Alpha.Total)
	}
	if d.BetaObserved != obs.SmartBetaRankChecks.Value() || d.BetaTop1 != obs.SmartBetaRankTop1.Value() {
		t.Errorf("/modelz β %d/%d, counters %d/%d", d.BetaTop1, d.BetaObserved,
			obs.SmartBetaRankTop1.Value(), obs.SmartBetaRankChecks.Value())
	}
	p := res.Profile.Snapshot()
	if p.RequestID != id || p.Fingerprint != fingerprint || p.BetaScored != res.Beta.Total || p.BetaTop1 != res.Beta.Correct {
		t.Errorf("profile %q/%q β %d/%d, want %q/%q β %d/%d", p.RequestID, p.Fingerprint, p.BetaTop1, p.BetaScored,
			id, fingerprint, res.Beta.Correct, res.Beta.Total)
	}
}

// TestShadowFoldMatchesResult is the one-fold guard across runs: with
// collection on and the prepared cache off, so every Run trains and
// scores model β afresh, /modelz's model-α cells equal the summed
// Result.Alpha, its β line moves by each Run's Result.Beta exactly
// once, and each Run's profile carries its own request ID and tally.
func TestShadowFoldMatchesResult(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	obs.DefaultModelStats.Reset()
	defer obs.DefaultModelStats.Reset()
	e, q := profileFixture(t)
	e = newEngine(e.g, e.sigs, Options{Seed: 2, Threads: 2, DisablePreparedCache: true})
	q, err := graph.NewQuery(q.G, 1) // two plan classes for model β
	if err != nil {
		t.Fatal(err)
	}

	const fingerprint = "fold-fingerprint"
	var alpha AccuracyReport
	for i := range 3 {
		id := fmt.Sprintf("fold-%d", i)
		before := obs.DefaultModelStats.Snapshot().BetaObserved
		res, err := e.Run(Request{Query: q, ID: id, Fingerprint: fingerprint})
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm || !res.UsedML || res.PlanClasses < 2 {
			t.Fatalf("run %d: warm=%v used_ml=%v plans=%d, want a cold ML run over two plans",
				i, res.Warm, res.UsedML, res.PlanClasses)
		}
		alpha.Correct += res.Alpha.Correct
		alpha.Total += res.Alpha.Total

		if res.Beta.Total == 0 {
			t.Fatalf("run %d scored no model-β predictions", i)
		}
		if d := obs.DefaultModelStats.Snapshot().BetaObserved - before; d != res.Beta.Total {
			t.Errorf("run %d moved /modelz β by %d, Result.Beta.Total = %d", i, d, res.Beta.Total)
		}
		if p := res.Profile.Snapshot(); p.RequestID != id || p.BetaScored != res.Beta.Total {
			t.Errorf("run %d profile %q β %d, want %q β %d", i, p.RequestID, p.BetaScored, id, res.Beta.Total)
		}
	}

	d := obs.DefaultModelStats.Snapshot()
	if alpha.Total == 0 {
		t.Fatal("fixture scored no model-α predictions")
	}
	if d.AlphaTotal() != alpha.Total || d.AlphaCorrect() != alpha.Correct {
		t.Errorf("/modelz model α = %d/%d correct, Results sum to %d/%d",
			d.AlphaCorrect(), d.AlphaTotal(), alpha.Correct, alpha.Total)
	}
}

// TestObsAbortedQueryAccountsWork aborts one query in the training sweep
// (at the trainHook checkpoint after it) and one in execute (a hard
// evalHook error): the work each did before the abort must reach the
// psi_* counters and the sealed profile's work map, as a finished
// query's does.
func TestObsAbortedQueryAccountsWork(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	// The sweep's limits count work, so its work is a function of the
	// seed.
	e, qs := preparedFixture(t, Options{Seed: 4, Threads: 1, DisablePreparedCache: true}, 1)
	q := qs[0]
	rng := rand.New(rand.NewSource(e.opts.Seed))
	art, err := e.prepare(q, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, order := newRun(e, q)
	t0 := time.Now()
	if _, err := e.train(art, r, order, rng, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Each aborted query gets ten times the whole train (sweep and both
	// fits) as its budget, so the sweep always reaches checkpoint 0 in
	// time, however slow the machine or the build.
	budget := max(10*time.Since(t0), 100*time.Millisecond)
	want := psi.RecordWork(r.res.Work()) // the whole sweep: both aborts come after it
	if want[obs.PSIRecursions.Name()] == 0 {
		t.Fatal("fixture: the training sweep did no work")
	}

	for _, tc := range []struct {
		name    string
		arm     func(deadline time.Time) (reached *bool)
		wantErr error
	}{
		{"sweep", func(deadline time.Time) *bool {
			reached := new(bool)
			e.trainHook = func(i int) {
				if i == 0 {
					*reached = true
					time.Sleep(time.Until(deadline) + time.Millisecond)
				}
			}
			return reached
		}, psi.ErrDeadline},
		{"execute", func(time.Time) *bool {
			e.evalHook = func(int, psi.Mode, int) (bool, error) { return false, errBoom }
			return new(bool)
		}, errBoom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deadline := time.Now().Add(budget)
			reached := tc.arm(deadline)
			defer func() { e.trainHook, e.evalHook = nil, nil }()
			before := obs.Default.Snapshot().Counters
			_, err := e.Run(Request{Query: q, Deadline: deadline})
			after := obs.Default.Snapshot().Counters
			if tc.name == "sweep" && !*reached {
				t.Fatalf("the sweep did not reach checkpoint 0 within %v (%v)", budget, err)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			for name, v := range after {
				if strings.HasPrefix(name, "psi_") && v-before[name] != want[name] {
					t.Errorf("%s delta = %d, the aborted query did %d", name, v-before[name], want[name])
				}
			}
			snap := obs.DefaultRecorder.Lookup(obs.DefaultRecorder.LastID()).Snapshot()
			if !snap.Finished || snap.Error != err.Error() || !reflect.DeepEqual(snap.Work, want) {
				t.Errorf("sealed profile: finished=%v error=%q work=%v, want error %q and work %v",
					snap.Finished, snap.Error, snap.Work, err, want)
			}
			var text strings.Builder
			if err := snap.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if line := "error: " + err.Error(); !strings.Contains(text.String(), line) {
				t.Errorf("sealed profile's text misses %q:\n%s", line, text.String())
			}
		})
	}
}
