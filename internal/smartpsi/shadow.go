package smartpsi

// Shadow scoring (model-decision audits). With Options.ShadowRate > 0
// the engine re-evaluates a sampled fraction of its model decisions
// against a counterfactual — the opposite method (model-α audit) or a
// random alternative plan (model-β audit) — and records the decision's
// regret: max(0, primary − counterfactual) wall time. The audit's budget
// is counted in work, so which audits are censored does not depend on
// the machine; the times it reports are the clock's.
//
// Audits never influence the primary result. A shadow run uses its own
// psi.State (its work lands in Result.ShadowWork, never Result.Work),
// runs only after the primary verdict is established, and fires only
// for non-training candidates whose primary evaluation resolved at
// recovery-ladder rung 1 — training nodes are labeled by the training
// sweep, and rungs 2–3 are themselves counterfactual re-runs
// (invariant.CheckShadowContext pins both exclusions).

import (
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/psi"
)

// shadowBudgetFactor bounds a counterfactual run relative to its
// primary: a shadow may do at most 16x the primary's work
// (psi.Stats.Units) before it is censored (ShadowTimeout, regret 0).
// Censoring keeps a good primary decision from paying an unbounded audit
// bill — knowing the counterfactual costs ≥16x is enough to score it.
const shadowBudgetFactor = 16

// shadowSeed derives worker w's deterministic sampling stream from the
// engine seed (splitmix64's golden-ratio increment keeps streams
// decorrelated across workers).
func shadowSeed(seed int64, w int) int64 {
	return seed ^ (int64(w)+1)*-0x61c8864680b583eb // 0x9e3779b97f4a7c15 as int64
}

// shadowSampled is the audit sampling gate: every shadow call site must
// sit behind it (the psilint shadowgate rule enforces this). Rates ≥ 1
// short-circuit without consuming randomness, so ShadowRate=1 tests get
// deterministic audit schedules regardless of RNG state.
func (w *worker) shadowSampled(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return w.rng.Float64() < rate
}

// primaryRun is one ladder attempt (attempt's result) as the audits see
// a rung-1 resolution: the candidate and its signature row (the worker's
// scratch), the decision that produced the run (mode, plan, vote lead)
// and whether its decision slot served it, and the run's verdict, work
// and wall time.
type primaryRun struct {
	u      graph.NodeID
	row    []float64
	dec    decision
	cached bool
	valid  bool
	units  int64
	took   time.Duration
}

// counterfactual is one finished (or budget-censored) shadow run.
type counterfactual struct {
	mode     psi.Mode
	planIdx  int
	valid    bool
	took     time.Duration
	timedOut bool
}

// auditDecision runs the sampled audits for one candidate whose primary
// evaluation resolved at recovery-ladder rung 1. Audit evaluation errors
// propagate (a failing evaluator is a real error even on the audit
// path), as do invariant violations when deep checking is on.
func (e *Engine) auditDecision(w *worker, p primaryRun) error {
	if invariant.Enabled() {
		// This call site is structurally rung-1 and non-training; the
		// check documents (and pins) that contract.
		if err := invariant.CheckShadowContext(int64(p.u), 1, false); err != nil {
			return err
		}
	}
	if w.shadowSampled(e.opts.ShadowRate) {
		if err := e.shadowModeRun(w, p); err != nil {
			return err
		}
	}
	if len(w.art.compiled) > 1 {
		if w.shadowSampled(e.opts.ShadowRate / 4) {
			if err := e.shadowPlanRun(w, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// shadowModeRun audits model α: re-evaluate the candidate with the
// opposite method on the same plan and score the decision's regret.
func (e *Engine) shadowModeRun(w *worker, p primaryRun) error {
	cf, err := e.shadowEvaluate(w, p, p.dec.mode.Opposite(), p.dec.planIdx)
	if err != nil {
		return err
	}
	w.ShadowModeRuns++
	return e.recordShadow(w, p, obs.DecisionKindMode, cf)
}

// shadowPlanRun audits model β: re-evaluate the candidate under the same
// method on a uniformly sampled alternative plan. Caller guarantees ≥ 2
// plans.
func (e *Engine) shadowPlanRun(w *worker, p primaryRun) error {
	alt := w.rng.Intn(len(w.art.compiled) - 1)
	if alt >= p.dec.planIdx {
		alt++
	}
	cf, err := e.shadowEvaluate(w, p, p.dec.mode, alt)
	if err != nil {
		return err
	}
	w.ShadowPlanRuns++
	return e.recordShadow(w, p, obs.DecisionKindPlan, cf)
}

// shadowEvaluate runs one counterfactual on the worker's shadow state
// with the 16x-primary work budget (floored at minBudgetUnits) and the
// query's global deadline. A budget timeout censors the run (timedOut,
// no error); a global-deadline expiry propagates psi.ErrDeadline — the
// query is out of budget regardless of the audit.
func (e *Engine) shadowEvaluate(w *worker, p primaryRun, mode psi.Mode, planIdx int) (counterfactual, error) {
	cf := counterfactual{mode: mode, planIdx: planIdx}
	limits := psi.Limits{Deadline: w.global, MaxSteps: max(shadowBudgetFactor*p.units, minBudgetUnits)}
	t0 := time.Now()
	var err error
	if e.shadowHook != nil {
		cf.valid, err = e.shadowHook(mode, planIdx)
	} else {
		cf.valid, err = w.art.ev.Evaluate(w.shadowState, w.art.compiled[planIdx], p.u, mode, limits)
	}
	cf.took = time.Since(t0)
	if err == psi.ErrDeadline && !expiredAt(w.global, time.Now()) {
		cf.timedOut, err = true, nil
	}
	return cf, err
}

// recordShadow scores one finished (or censored) counterfactual:
// verdict agreement and regret accounting, and with the query collected
// the audit record /modelz files.
func (e *Engine) recordShadow(w *worker, p primaryRun, kind string, cf counterfactual) error {
	regret := time.Duration(0)
	if cf.timedOut {
		w.ShadowTimeouts++
	} else {
		if cf.valid != p.valid {
			// Both runs are exact algorithms for the same decision
			// problem: disagreement means one evaluator is unsound.
			w.mismatches++
			if invariant.Enabled() {
				return invariant.CheckShadowAgreement(kind, int64(p.u), p.valid, cf.valid)
			}
		}
		if p.took > cf.took {
			regret = p.took - cf.took
		}
	}
	w.Regret += regret
	if !w.run.enabled {
		return nil
	}
	rec := w.decisionRecord(p, kind)
	rec.ShadowMode = int(cf.mode)
	rec.ShadowPlan = cf.planIdx
	rec.PrimaryNanos = p.took.Nanoseconds()
	rec.ShadowNanos = cf.took.Nanoseconds()
	rec.RegretNanos = regret.Nanoseconds()
	rec.ShadowTimeout = cf.timedOut
	w.audits = append(w.audits, rec)
	return nil
}

// flushDecisions files what one execute worker learned about the models
// into /modelz, once, when it exits and only if the query is collected:
// its audited decisions (aggregated and retained), its model-α cells
// and its shadow mismatches.
func (w *worker) flushDecisions() {
	if !w.run.enabled {
		return
	}
	for _, rec := range w.audits {
		obs.DefaultModelStats.Observe(rec, true)
	}
	obs.DefaultModelStats.AddAlpha(w.alpha)
	for range w.mismatches {
		obs.DefaultModelStats.ObserveShadowMismatch()
	}
}

// decisionRecord fills the part of an audit record every audit of one
// primary run shares: the query's identity and the audited decision.
func (w *worker) decisionRecord(p primaryRun, kind string) obs.DecisionRecord {
	return obs.DecisionRecord{
		Kind:        kind,
		Query:       w.run.name,
		RequestID:   w.run.req.ID,
		Fingerprint: w.run.req.Fingerprint,
		Node:        int64(p.u),
		FromCache:   p.cached,
		PredMode:    int(p.dec.mode),
		PredPlan:    p.dec.planIdx,
		VoteMargin:  w.margin(p.dec),
		ActualValid: p.valid,
	}
}

// betaSweep retains one training node's per-plan sweep measurements for
// the model-β plan-rank audit.
type betaSweep struct {
	node     graph.NodeID
	outcomes []planOutcome
}

// scoreBetaRanks audits model β against the training sweeps: for every
// retained sweep, predict a plan with the trained forest and record the
// prediction's 1-based rank among the sweep's finished plans by work
// (1 = the model picked the plan that used the fewest units; unfinished
// predictions rank behind every finished plan). The sweep bounds each
// plan by the leader's units, so only rank 1 is exact: a plan that
// matches the fastest still finishes, but the slower ones are mostly cut
// off, and a rank past 1 does not order them.
func (e *Engine) scoreBetaRanks(r *queryRun, betaModel *ml.Forest, sweeps []betaSweep) {
	votes := make([]int, betaModel.NumClasses())
	var row []float64
	for _, s := range sweeps {
		row = e.sigs.RowInto(s.node, row)
		pred := betaModel.PredictInto(row, votes)
		var predOutcome planOutcome
		if pred >= 0 && pred < len(s.outcomes) {
			predOutcome = s.outcomes[pred]
		}
		finished, rank := 0, 1
		for i, o := range s.outcomes {
			if !o.done {
				continue
			}
			finished++
			if predOutcome.done && i != pred && o.units < predOutcome.units {
				rank++
			}
		}
		if finished == 0 {
			continue
		}
		if !predOutcome.done {
			rank = finished + 1
		}
		rec := obs.DecisionRecord{
			Kind:        obs.DecisionKindBeta,
			Query:       r.name,
			RequestID:   r.req.ID,
			Fingerprint: r.req.Fingerprint,
			Node:        int64(s.node),
			PredPlan:    pred,
			Rank:        rank,
		}
		// The contract pinned by the overhead guard: ShadowRate=0
		// retains no record, beta ranks included; the rank still
		// reaches the /modelz aggregate.
		obs.DefaultModelStats.Observe(rec, e.opts.auditing())
	}
}

// voteLead returns the forest's winner-minus-runner-up vote count.
func voteLead(votes []int) int {
	best, second := 0, 0
	for _, v := range votes {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	return best - second
}

// newShadowRNG builds worker w's deterministic sampling stream.
func newShadowRNG(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(shadowSeed(seed, w)))
}
