package smartpsi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/psi"
)

// auditFixture builds a modest 2-hop-query workload over a sparse
// random graph: cheap per-candidate evaluations, and 100 nodes of each
// label, enough candidates to enter the ML path (MinTrainNodes).
func auditFixture(t *testing.T) (*graph.Graph, graph.Query) {
	t.Helper()
	const n, m = 300, 900
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(i % 3))
	}
	for b.NumEdges() < m {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
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
	// Pivot at the middle node: two distinct matching orders exist
	// ([1,0,2] and [1,2,0]), so plan.Sample yields two plan classes and
	// the plan-audit path is exercised.
	q, err := graph.NewQuery(qb.MustBuild(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

func auditOptions(rate float64) Options {
	return Options{
		Seed:              3,
		DisablePreemption: true, // rung 1 always resolves: deterministic
		ShadowRate:        rate,
	}
}

// TestShadowRungOneOnly pins the audit call sites with deterministic
// hooks: a shadow may run only after a rung-1 resolution — never when
// the recovery ladder advanced to rung 2 or 3.
func TestShadowRungOneOnly(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)

	cases := []struct {
		name       string
		states     map[int]bool // ladder state -> resolves (false: ErrDeadline)
		wantShadow int64
	}{
		{"rung1-resolves-audited", map[int]bool{1: true}, 1},
		{"rung2-flip-never-audited", map[int]bool{1: false, 2: true}, 0},
		{"rung3-fallback-never-audited", map[int]bool{1: false, 2: false, 3: true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ev, compiled := ladderFixture(t)
			e.opts.ShadowRate = 1 // audit every eligible decision
			e.evalHook = func(state int, mode psi.Mode, planIdx int) (bool, error) {
				if ok, known := tc.states[state]; known {
					if ok {
						return true, nil
					}
					return false, psi.ErrDeadline
				}
				t.Fatalf("ladder reached unexpected state %d", state)
				return false, nil
			}
			w := ladderWorker(ev, compiled, time.Time{})
			var shadowCalls int64
			e.shadowHook = func(mode psi.Mode, planIdx int) (bool, error) {
				shadowCalls++
				// Audits run strictly after the verdict: by the time a
				// shadow starts, the worker already tallied the primary
				// as resolved at rung 1.
				if r := w.Ladder[obs.LadderPredicted]; r.Resolved != 1 {
					t.Errorf("shadow ran before the primary's rung-1 resolution was recorded: %+v", r)
				}
				return true, nil // agree with the primary verdict
			}

			w.rng = newShadowRNG(1, 0)
			got, err := e.evaluateOne(w, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !got {
				t.Errorf("primary verdict = false, want true")
			}
			if shadowCalls != tc.wantShadow {
				t.Errorf("shadow hook ran %d times, want %d", shadowCalls, tc.wantShadow)
			}
			// The worker's Counts (folded into the Result by Counts.Add)
			// and the audit records it files at exit agree.
			if w.ShadowModeRuns != tc.wantShadow || w.ShadowPlanRuns != 0 || w.ShadowTimeouts != 0 {
				t.Errorf("shadow runs mode/plan/censored = %d/%d/%d, want %d/0/0",
					w.ShadowModeRuns, w.ShadowPlanRuns, w.ShadowTimeouts, tc.wantShadow)
			}
			if int64(len(w.audits)) != tc.wantShadow {
				t.Errorf("%d audit records pending, want %d", len(w.audits), tc.wantShadow)
			}
		})
	}
}

// TestShadowMismatchDetection: a shadow verdict disagreeing with the
// primary is a soundness signal — counted always, an invariant
// violation with deep checking on — but the primary verdict must stand.
func TestShadowMismatchDetection(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)

	run := func(t *testing.T) (bool, error, int64) {
		e, ev, compiled := ladderFixture(t)
		e.opts.ShadowRate = 1
		e.evalHook = func(state int, mode psi.Mode, planIdx int) (bool, error) { return true, nil }
		e.shadowHook = func(mode psi.Mode, planIdx int) (bool, error) { return false, nil } // contradict
		w := ladderWorker(ev, compiled, time.Time{})
		w.rng = newShadowRNG(1, 0)
		before := obs.DefaultModelStats.Snapshot().ShadowMismatches
		got, err := e.evaluateOne(w, 0, 0)
		w.flushDecisions() // as the worker's exit does
		return got, err, obs.DefaultModelStats.Snapshot().ShadowMismatches - before
	}

	t.Run("invariants-off-primary-stands", func(t *testing.T) {
		if invariant.Enabled() {
			t.Skip("deep checking forced on")
		}
		got, err, mismatches := run(t)
		if err != nil {
			t.Fatalf("err = %v; a disagreeing shadow must not fail the query without deep checking", err)
		}
		if !got {
			t.Error("primary verdict flipped by shadow run; audits must never mutate the result")
		}
		if mismatches != 1 {
			t.Errorf("shadow mismatch count delta = %d, want 1", mismatches)
		}
	})
	t.Run("invariants-on-violation", func(t *testing.T) {
		invariant.Enable(true)
		defer invariant.Enable(false)
		_, err, _ := run(t)
		if err == nil {
			t.Fatal("want shadow-agreement violation with deep checking on, got nil")
		}
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("err = %T %v, want *invariant.Violation", err, err)
		}
	})
}

// TestShadowContextInvariants pins the two illegal audit sites.
func TestShadowContextInvariants(t *testing.T) {
	if err := invariant.CheckShadowContext(5, 1, false); err != nil {
		t.Errorf("rung-1 non-training shadow flagged: %v", err)
	}
	if err := invariant.CheckShadowContext(5, 2, false); err == nil {
		t.Error("rung-2 shadow not flagged; shadows may only follow rung-1 resolutions")
	}
	if err := invariant.CheckShadowContext(5, 1, true); err == nil {
		t.Error("training-node shadow not flagged; training nodes are labeled by the sweep")
	}
	if err := invariant.CheckShadowAgreement("mode", 5, true, true); err != nil {
		t.Errorf("agreeing shadow flagged: %v", err)
	}
	if err := invariant.CheckShadowAgreement("mode", 5, true, false); err == nil {
		t.Error("disagreeing shadow not flagged")
	}
}

// TestShadowDoesNotPerturbPrimary runs the same workload with auditing
// off and fully on: bindings, primary work and model accuracy must be
// bit-identical, shadow work must stay out of Result.Work, and the
// audit counters must respect the non-training candidate budget.
//
// The query is the fixture's path pivoted at an endpoint, which has one
// connected matching order and so one plan class: no plan audit can
// run. Plan audits are covered by TestShadowPlanAudits.
func TestShadowDoesNotPerturbPrimary(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	g, mid := auditFixture(t)
	q, err := graph.NewQuery(mid.G, 0)
	if err != nil {
		t.Fatal(err)
	}

	base, err := NewEngine(g, auditOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	res0, err := base.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}

	obs.DefaultModelStats.Reset()
	defer obs.DefaultModelStats.Reset()
	audited, err := NewEngine(g, auditOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := audited.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}

	if !res0.UsedML || !res1.UsedML {
		t.Fatalf("fixture too small: UsedML = %v/%v, want true", res0.UsedML, res1.UsedML)
	}
	if res0.PlanClasses != 1 || res1.PlanClasses != 1 {
		t.Fatalf("PlanClasses = %d/%d, want 1 (an endpoint-pivoted path has one order)", res0.PlanClasses, res1.PlanClasses)
	}
	if !reflect.DeepEqual(res0.Bindings, res1.Bindings) {
		t.Errorf("bindings differ with auditing on: %d vs %d nodes", len(res0.Bindings), len(res1.Bindings))
	}
	if res0.Work != res1.Work {
		t.Errorf("primary Work differs with auditing on:\n  off: %+v\n  on:  %+v", res0.Work, res1.Work)
	}
	if res0.Alpha != res1.Alpha {
		t.Errorf("Alpha differs with auditing on: %+v vs %+v", res0.Alpha, res1.Alpha)
	}

	if res0.ShadowModeRuns != 0 || res0.ShadowWork.Total() != 0 {
		t.Errorf("ShadowRate=0 but shadow runs %d, shadow work %d", res0.ShadowModeRuns, res0.ShadowWork.Total())
	}
	nonTraining := int64(res1.Candidates - res1.TrainedNodes)
	if res1.ShadowModeRuns == 0 {
		t.Error("ShadowRate=1 but no mode shadows ran")
	}
	if res1.ShadowModeRuns > nonTraining {
		t.Errorf("mode shadows %d exceed the %d non-training candidates; training nodes must never be audited",
			res1.ShadowModeRuns, nonTraining)
	}
	if res1.ShadowPlanRuns != 0 {
		t.Errorf("one plan class but %d plan shadows ran; there is no alternative plan to audit", res1.ShadowPlanRuns)
	}
	if res1.ShadowWork.Total() == 0 {
		t.Error("shadow runs executed but ShadowWork is empty")
	}

	// /modelz filed and retained one mode record per shadow mode run.
	d := obs.DefaultModelStats.Snapshot()
	if n := countKind(d.Recent, obs.DecisionKindMode); n != res1.ShadowModeRuns || d.ModeRegret.Runs != res1.ShadowModeRuns {
		t.Errorf("/modelz holds %d mode records (%d mode regret runs), Result reports %d shadow mode runs",
			n, d.ModeRegret.Runs, res1.ShadowModeRuns)
	}
}

// countKind counts the records of one kind.
func countKind(recs []obs.DecisionRecord, kind string) int64 {
	var n int64
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// TestShadowPlanAudits exercises the plan-audit path: with two plan
// classes and ShadowRate=1 (plan audits sample at a quarter of it),
// sampled rung-1 decisions re-run a random alternative plan, plan regret
// accumulates, and /modelz retains the plan records. The binding count
// is pinned.
func TestShadowPlanAudits(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	obs.DefaultModelStats.Reset()
	defer obs.DefaultModelStats.Reset()
	g, q := auditFixture(t)

	e, err := NewEngine(g, auditOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedML {
		t.Fatal("fixture too small: UsedML = false")
	}
	if res.PlanClasses < 2 {
		t.Fatalf("PlanClasses = %d, want >= 2 (pivot-centered path query should admit two orders)", res.PlanClasses)
	}
	if res.ShadowPlanRuns == 0 {
		t.Error("ShadowRate=1 with 2 plans but no plan shadows ran")
	}
	nonTraining := int64(res.Candidates - res.TrainedNodes)
	if res.ShadowPlanRuns > nonTraining {
		t.Errorf("plan shadows %d exceed the %d non-training candidates", res.ShadowPlanRuns, nonTraining)
	}

	d := obs.DefaultModelStats.Snapshot()
	if d.PlanRegret.Runs != res.ShadowPlanRuns {
		t.Errorf("/modelz has %d plan regret runs, Result reports %d shadow plan runs", d.PlanRegret.Runs, res.ShadowPlanRuns)
	}
	for _, r := range d.Recent {
		if r.Kind == obs.DecisionKindPlan && r.ShadowPlan == r.PredPlan && !r.ShadowTimeout {
			t.Errorf("plan record audits the predicted plan %d against itself", r.PredPlan)
		}
	}
	if n := countKind(d.Recent, obs.DecisionKindPlan); n != res.ShadowPlanRuns {
		t.Errorf("/modelz retains %d plan records, Result reports %d shadow plan runs", n, res.ShadowPlanRuns)
	}
}

// TestShadowFoldMatchesResult is the one-fold guard: with collection on
// and every decision audited, the /modelz aggregates equal the summed
// Result counters, every audit is retained, and each retained record
// carries the request ID and fingerprint its Run was given. The
// evalHook/shadowHook seams make the schedule deterministic, and every
// third counterfactual is censored by its budget so timeouts are
// exercised too.
func TestShadowFoldMatchesResult(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(prev)
	obs.DefaultModelStats.Reset()
	defer obs.DefaultModelStats.Reset()
	g, q := auditFixture(t)

	e, err := NewEngine(g, auditOptions(1)) // two plan classes
	if err != nil {
		t.Fatal(err)
	}
	e.evalHook = func(int, psi.Mode, int) (bool, error) { return true, nil }
	var shadows int
	e.shadowHook = func(psi.Mode, int) (bool, error) {
		shadows++
		if shadows%3 == 0 {
			return false, psi.ErrDeadline // censored: regret 0, a timeout
		}
		return true, nil // agree with the primary verdict
	}

	const fingerprint = "fold-fingerprint"
	total := &Result{}
	filed := func(d obs.ModelStatsData) int64 {
		return d.ModeRegret.Runs + d.PlanRegret.Runs + d.BetaObserved()
	}
	for i := range 3 {
		id := fmt.Sprintf("fold-%d", i)
		before := filed(obs.DefaultModelStats.Snapshot())
		res, err := e.Run(Request{Query: q, ID: id, Fingerprint: fingerprint})
		if err != nil {
			t.Fatal(err)
		}
		total.ShadowModeRuns += res.ShadowModeRuns
		total.ShadowPlanRuns += res.ShadowPlanRuns
		total.ShadowTimeouts += res.ShadowTimeouts
		total.Regret += res.Regret

		d := obs.DefaultModelStats.Snapshot()
		fresh := min(filed(d)-before, int64(len(d.Recent)))
		if fresh == 0 {
			t.Fatalf("run %d filed no audit records", i)
		}
		for _, rec := range d.Recent[int64(len(d.Recent))-fresh:] {
			if rec.RequestID != id || rec.Fingerprint != fingerprint {
				t.Fatalf("run %d retained a %s record tagged %q/%q, want %q/%q",
					i, rec.Kind, rec.RequestID, rec.Fingerprint, id, fingerprint)
			}
		}
	}

	d := obs.DefaultModelStats.Snapshot()
	if total.ShadowModeRuns == 0 || total.ShadowPlanRuns == 0 || total.ShadowTimeouts == 0 {
		t.Fatalf("fixture exercised mode/plan/censored = %d/%d/%d shadow runs, want all nonzero",
			total.ShadowModeRuns, total.ShadowPlanRuns, total.ShadowTimeouts)
	}
	if d.ModeRegret.Runs != total.ShadowModeRuns || d.PlanRegret.Runs != total.ShadowPlanRuns {
		t.Errorf("/modelz mode/plan runs = %d/%d, Result reports %d/%d",
			d.ModeRegret.Runs, d.PlanRegret.Runs, total.ShadowModeRuns, total.ShadowPlanRuns)
	}
	if got := d.ModeRegret.Timeouts + d.PlanRegret.Timeouts; got != total.ShadowTimeouts {
		t.Errorf("/modelz timeouts = %d, Result reports %d", got, total.ShadowTimeouts)
	}
	if got := time.Duration(d.ModeRegret.TotalNanos + d.PlanRegret.TotalNanos); got != total.Regret {
		t.Errorf("/modelz regret = %s, Result reports %s", got, total.Regret)
	}
	if want := min(filed(d), obs.RecentDecisions); int64(len(d.Recent)) != want {
		t.Errorf("/modelz retains %d records, want %d (every audit, up to the cap)", len(d.Recent), want)
	}
	if d.ShadowMismatches != 0 {
		t.Errorf("%d shadow mismatches; every counterfactual agreed", d.ShadowMismatches)
	}
}
