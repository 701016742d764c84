package smartpsi

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
	"repro/internal/signature"
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
	qSigs, err := signature.Build(q.G, e.opts.SignatureDepth, e.sigs.Width(), e.opts.SignatureMethod)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := psi.NewEvaluator(g, q, e.sigs, qSigs)
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
// fresh artifact: no models, an empty prediction cache, a fresh
// planTiming.
func ladderWorker(ev *psi.Evaluator, compiled []*plan.Compiled, prof *obs.Profile, global time.Time) *worker {
	art := &artifact{ev: ev, compiled: compiled, timing: newPlanTiming(len(compiled))}
	r := &queryRun{name: "test", prof: prof, enabled: obs.Enabled()} // read once, as Run does
	return &worker{art: art, run: r, global: global, st: psi.NewState(2)}
}

var errBoom = errors.New("boom")

// TestObsRecoveryLadderTraceSequences pins the preemptive executor's
// recovery ladder (predicted → opposite mode → heuristic plan) for
// forced-timeout scenarios, using the deterministic evalHook instead of
// wall-clock budgets: the rungs run in order with the right (mode, plan)
// each, and the counters, the recoveries metric and the profile's
// per-rung timeline mirror exactly the states that ran.
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
		name           string
		states         map[int]step
		cached         *decision // pre-populate the prediction cache
		global         time.Time // global budget (zero: none)
		wantOK         bool
		wantErr        error
		wantCalls      []call
		wantFlips      int64
		wantFallbacks  int64
		wantCacheHits  int64
		wantCacheMiss  int64
		wantRecoveries int64
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
			name:           "timeout-then-flip-recovers",
			states:         map[int]step{1: {err: deadline}, 2: {ok: true}},
			wantOK:         true,
			wantCalls:      []call{{1, psi.Pessimistic, 0}, {2, psi.Optimistic, 0}},
			wantFlips:      1,
			wantCacheMiss:  1,
			wantRecoveries: 1,
		},
		{
			name:           "double-timeout-then-heuristic-fallback",
			states:         map[int]step{1: {err: deadline}, 2: {err: deadline}, 3: {ok: true}},
			wantOK:         true,
			wantCalls:      []call{{1, psi.Pessimistic, 0}, {2, psi.Optimistic, 0}, {3, psi.Pessimistic, 0}},
			wantFlips:      1,
			wantFallbacks:  1,
			wantCacheMiss:  1,
			wantRecoveries: 2,
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
			name:           "cached-plan1-walks-all-rungs",
			states:         map[int]step{1: {err: deadline}, 2: {err: deadline}, 3: {ok: true}},
			cached:         &decision{mode: psi.Optimistic, planIdx: 1},
			wantOK:         true,
			wantCalls:      []call{{1, psi.Optimistic, 1}, {2, psi.Pessimistic, 1}, {3, psi.Optimistic, 0}},
			wantFlips:      1,
			wantFallbacks:  1,
			wantCacheHits:  1,
			wantRecoveries: 2,
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

			prof := obs.NewProfile(tc.name)
			w := ladderWorker(ev, compiled, prof, tc.global)
			dec := pess
			if tc.cached != nil {
				dec = *tc.cached
				w.art.cache.Store(signature.Key(e.sigs.Row(u)), dec)
			}
			recBefore := obs.SmartRecoveries.Value()

			got, err := e.evaluateOne(w, u)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && got != tc.wantOK {
				t.Errorf("valid = %v, want %v", got, tc.wantOK)
			}

			if !reflect.DeepEqual(calls, tc.wantCalls) {
				t.Fatalf("hook calls (state, mode, plan) = %v, want %v", calls, tc.wantCalls)
			}
			if w.flips != tc.wantFlips || w.fallbacks != tc.wantFallbacks {
				t.Errorf("flips/fallbacks = %d/%d, want %d/%d", w.flips, w.fallbacks, tc.wantFlips, tc.wantFallbacks)
			}
			if w.cacheHits != tc.wantCacheHits || w.cacheMisses != tc.wantCacheMiss {
				t.Errorf("cache hits/misses = %d/%d, want %d/%d", w.cacheHits, w.cacheMisses, tc.wantCacheHits, tc.wantCacheMiss)
			}
			if d := obs.SmartRecoveries.Value() - recBefore; d != tc.wantRecoveries {
				t.Errorf("smartpsi_recoveries_total delta = %d, want %d", d, tc.wantRecoveries)
			}
			// A rung-1 resolution of a fresh prediction fills the cache;
			// nothing else may.
			_, stored := w.art.cache.Load(signature.Key(e.sigs.Row(u)))
			if want := tc.cached != nil || (tc.wantErr == nil && len(tc.wantCalls) == 1); stored != want {
				t.Errorf("prediction cache holds the decision = %v, want %v", stored, want)
			}
			// The profiler's recovery-ladder timeline must mirror the
			// states the hook ran: rung N entered iff state N executed,
			// resolved iff it returned without error.
			snap := prof.Snapshot()
			for s := 1; s <= obs.NumLadderRungs; s++ {
				var wantEntered, wantResolved int64
				if step, ran := tc.states[s]; ran {
					wantEntered = 1
					if step.err == nil {
						wantResolved = 1
					}
				}
				r := snap.Ladder[s-1]
				if r.Entered != wantEntered || r.Resolved != wantResolved {
					t.Errorf("ladder rung %d = entered %d resolved %d, want %d/%d",
						s, r.Entered, r.Resolved, wantEntered, wantResolved)
				}
			}
			if snap.CacheHits != tc.wantCacheHits || snap.CacheMisses != tc.wantCacheMiss {
				t.Errorf("profile cache hits/misses = %d/%d, want %d/%d",
					snap.CacheHits, snap.CacheMisses, tc.wantCacheHits, tc.wantCacheMiss)
			}
			// The decision itself (the former mode_predicted / plan_chosen
			// events) is on the profile too.
			mode := map[psi.Mode]string{psi.Optimistic: "optimistic", psi.Pessimistic: "pessimistic"}[dec.mode]
			if snap.ModePredicted[mode] != 1 || len(snap.PlanChosen) != dec.planIdx+1 || snap.PlanChosen[dec.planIdx] != 1 {
				t.Errorf("profile decision = modes %v plans %v, want one %s pick of plan %d",
					snap.ModePredicted, snap.PlanChosen, mode, dec.planIdx)
			}
		})
	}
}

// TestObsScoreAlphaMispredictions checks the model-α accuracy counters
// and the mode_mispredictions metric.
func TestObsScoreAlphaMispredictions(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	e, ev, compiled := ladderFixture(t)
	w := ladderWorker(ev, compiled, nil, time.Time{})
	before := obs.SmartMispredicts.Value()

	// Optimistic prediction means "valid"; actual invalid → mispredict.
	e.scoreAlpha(w, true, decision{mode: psi.Optimistic}, false)
	// Pessimistic prediction means "invalid"; actual invalid → correct.
	e.scoreAlpha(w, true, decision{mode: psi.Pessimistic}, false)
	// No prediction made → not scored.
	e.scoreAlpha(w, false, decision{mode: psi.Pessimistic}, true)

	if w.alphaTotal != 2 || w.alphaCorrect != 1 {
		t.Errorf("alpha = %d/%d, want 1/2", w.alphaCorrect, w.alphaTotal)
	}
	if d := obs.SmartMispredicts.Value() - before; d != 1 {
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
	if res.Work.Recursions == 0 {
		t.Error("Result.Work.Recursions = 0; per-query work not aggregated")
	}
	if res.Work.SigPrunes == 0 {
		t.Error("Result.Work.SigPrunes = 0; node C should be signature-pruned")
	}
	if d := obs.PSIRecursions.Value() - recBefore; d != res.Work.Recursions {
		t.Errorf("psi_recursions_total delta = %d, want %d", d, res.Work.Recursions)
	}
	if d := obs.PSISigPrunes.Value() - pruneBefore; d != res.Work.SigPrunes {
		t.Errorf("psi_sig_prunes_total delta = %d, want %d", d, res.Work.SigPrunes)
	}
	if d := obs.SmartQueries.Value() - queriesBefore; d != 1 {
		t.Errorf("smartpsi_queries_total delta = %d, want 1", d)
	}

	// The query's one record, its profile, must be sealed and retained
	// by the default flight recorder.
	if res.Profile == nil || !res.Profile.Finished() || obs.DefaultRecorder.Lookup(res.Profile.ID()) != res.Profile {
		t.Error("default recorder did not retain the query's finished profile")
	}
}
