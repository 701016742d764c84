package smartpsi

// Shadow scoring (model-decision audits). With Options.ShadowRate > 0
// the engine re-evaluates a sampled fraction of its model decisions
// against a counterfactual — the opposite method (model-α audit) or a
// random alternative plan (model-β audit) — and records the decision's
// regret: max(0, primary − counterfactual) wall time. The same rate
// samples prediction-cache hits for cache-quality audits (cached
// decision vs a fresh model prediction; no extra evaluation).
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
	"repro/internal/plan"
	"repro/internal/psi"
)

// shadowBudgetFactor bounds a counterfactual run relative to its
// primary: a shadow may take at most 16x the primary's wall time before
// it is censored (ShadowTimeout, regret 0). Censoring keeps a good
// primary decision from paying an unbounded audit bill — knowing the
// counterfactual is ≥16x slower is enough to score the decision.
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
func (w *workerCounters) shadowSampled(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return w.rng.Float64() < rate
}

// auditDecision runs the sampled audits for one candidate whose primary
// evaluation resolved at recovery-ladder rung 1. dec is the decision
// that produced the primary run (mode, plan, vote margin), cached marks
// decisions served by the prediction cache, actualValid is the primary
// verdict and primary its wall time. Audit evaluation errors propagate
// (a failing evaluator is a real error even on the audit path), as do
// invariant violations when deep checking is on.
func (e *Engine) auditDecision(ev *psi.Evaluator, compiled []*plan.Compiled, tag queryTag,
	u graph.NodeID, row []float64, dec decision, cached bool, actualValid bool,
	primary time.Duration, alphaModel, betaModel *ml.Forest,
	local *workerCounters, tr *obs.QueryTrace, prof *obs.Profile, global time.Time) error {

	if invariant.Enabled() {
		// This call site is structurally rung-1 and non-training; the
		// check documents (and pins) that contract.
		if err := invariant.CheckShadowContext(int64(u), 1, false); err != nil {
			return err
		}
	}
	if cached {
		if local.shadowSampled(e.opts.ShadowRate) {
			e.shadowCacheCheck(tag, u, row, dec, len(compiled), actualValid, alphaModel, betaModel, local, prof)
		}
	}
	if local.shadowSampled(e.opts.ShadowRate) {
		if err := e.shadowModeRun(ev, compiled, tag, u, row, dec, cached, actualValid, primary, local, tr, prof, global); err != nil {
			return err
		}
	}
	if len(compiled) > 1 {
		if local.shadowSampled(e.opts.planShadowRate()) {
			if err := e.shadowPlanRun(ev, compiled, tag, u, row, dec, cached, actualValid, primary, local, tr, prof, global); err != nil {
				return err
			}
		}
	}
	return nil
}

// shadowModeRun audits model α: re-evaluate u with the opposite method
// on the same plan and score the decision's regret.
func (e *Engine) shadowModeRun(ev *psi.Evaluator, compiled []*plan.Compiled, tag queryTag,
	u graph.NodeID, row []float64, dec decision, cached bool, actualValid bool,
	primary time.Duration, local *workerCounters, tr *obs.QueryTrace, prof *obs.Profile, global time.Time) error {

	opp := dec.mode.Opposite()
	ok, took, timedOut, err := e.shadowEvaluate(ev, compiled, u, opp, dec.planIdx, primary, local, global)
	if err != nil {
		return err
	}
	local.shadowModeRuns++
	return e.recordShadow(obs.DecisionKindMode, tag, u, row, dec, cached, actualValid,
		primary, opp, dec.planIdx, ok, took, timedOut, local, tr, prof)
}

// shadowPlanRun audits model β: re-evaluate u under the same method on
// a uniformly sampled alternative plan. Caller guarantees ≥ 2 plans.
func (e *Engine) shadowPlanRun(ev *psi.Evaluator, compiled []*plan.Compiled, tag queryTag,
	u graph.NodeID, row []float64, dec decision, cached bool, actualValid bool,
	primary time.Duration, local *workerCounters, tr *obs.QueryTrace, prof *obs.Profile, global time.Time) error {

	alt := local.rng.Intn(len(compiled) - 1)
	if alt >= dec.planIdx {
		alt++
	}
	ok, took, timedOut, err := e.shadowEvaluate(ev, compiled, u, dec.mode, alt, primary, local, global)
	if err != nil {
		return err
	}
	local.shadowPlanRuns++
	return e.recordShadow(obs.DecisionKindPlan, tag, u, row, dec, cached, actualValid,
		primary, dec.mode, alt, ok, took, timedOut, local, tr, prof)
}

// shadowEvaluate runs one counterfactual on the worker's shadow state
// with the 16x-primary budget (floored at minDeadline, capped by the
// global deadline). A budget timeout censors the run (timedOut, no
// error); a global-deadline expiry propagates psi.ErrDeadline — the
// query is out of budget regardless of the audit.
func (e *Engine) shadowEvaluate(ev *psi.Evaluator, compiled []*plan.Compiled, u graph.NodeID,
	mode psi.Mode, planIdx int, primary time.Duration, local *workerCounters,
	global time.Time) (ok bool, took time.Duration, timedOut bool, err error) {

	budget := shadowBudgetFactor * primary
	if budget < minDeadline {
		budget = minDeadline
	}
	deadline := time.Now().Add(budget)
	if !global.IsZero() && global.Before(deadline) {
		deadline = global
	}
	t0 := time.Now()
	if e.shadowHook != nil {
		ok, err = e.shadowHook(mode, planIdx)
	} else {
		ok, err = ev.Evaluate(local.shadowState, compiled[planIdx], u, mode, psi.Limits{Deadline: deadline})
	}
	took = time.Since(t0)
	if err == psi.ErrDeadline {
		if expired(global) {
			return false, took, false, psi.ErrDeadline
		}
		return false, took, true, nil
	}
	if err != nil {
		return false, took, false, err
	}
	return ok, took, false, nil
}

// recordShadow scores one finished (or censored) counterfactual:
// verdict agreement, regret accounting, metrics, trace, profile and the
// decision log.
func (e *Engine) recordShadow(kind string, tag queryTag, u graph.NodeID, row []float64, dec decision,
	cached bool, actualValid bool, primary time.Duration, shadowMode psi.Mode, shadowPlan int,
	shadowOK bool, took time.Duration, timedOut bool,
	local *workerCounters, tr *obs.QueryTrace, prof *obs.Profile) error {

	enabled := obs.Enabled()
	regret := time.Duration(0)
	if timedOut {
		local.shadowTimeouts++
	} else {
		if shadowOK != actualValid {
			// Both runs are exact algorithms for the same decision
			// problem: disagreement means one evaluator is unsound.
			if enabled {
				obs.DefaultModelStats.ObserveShadowMismatch()
			}
			if invariant.Enabled() {
				return invariant.CheckShadowAgreement(kind, int64(u), actualValid, shadowOK)
			}
		}
		if primary > took {
			regret = primary - took
		}
	}
	local.regretNanos += regret.Nanoseconds()
	prof.RecordShadow(kind, regret, timedOut)
	if enabled {
		obs.DefaultModelStats.ObserveRegret(kind, regret, timedOut)
		tr.Event(obs.EvShadow, int64(u), regret.Nanoseconds())
	}
	e.opts.DecisionLog.Append(obs.DecisionRecord{
		Kind:          kind,
		Query:         tag.name,
		RequestID:     tag.reqID,
		Fingerprint:   tag.fingerprint,
		Node:          int64(u),
		Features:      row,
		FromCache:     cached,
		PredMode:      int(dec.mode),
		PredPlan:      dec.planIdx,
		VoteMargin:    dec.margin,
		ActualValid:   actualValid,
		ShadowMode:    int(shadowMode),
		ShadowPlan:    shadowPlan,
		PrimaryNanos:  primary.Nanoseconds(),
		ShadowNanos:   took.Nanoseconds(),
		RegretNanos:   regret.Nanoseconds(),
		ShadowTimeout: timedOut,
	})
	return nil
}

// shadowCacheCheck audits the prediction cache on one sampled hit: the
// cached decision against a fresh model prediction for this node's
// signature row. Signature keys can collide, so a hit may serve another
// row's decision — the stale rate measures how often that matters. No
// shadow evaluation runs; the audit costs one forest prediction.
func (e *Engine) shadowCacheCheck(tag queryTag, u graph.NodeID, row []float64, dec decision,
	nPlans int, actualValid bool, alphaModel, betaModel *ml.Forest,
	local *workerCounters, prof *obs.Profile) {

	freshMode := psi.Pessimistic
	margin := 0.0
	if alphaModel != nil {
		votes := local.votes(alphaModel.NumClasses())
		if alphaModel.PredictInto(row, votes) == 1 {
			freshMode = psi.Optimistic
		}
		margin = voteMargin(votes, alphaModel.NumTrees())
	}
	freshPlan := 0
	if betaModel != nil {
		freshPlan = betaModel.PredictInto(row, local.votes(betaModel.NumClasses()))
		if freshPlan >= nPlans {
			freshPlan = 0
		}
	}
	stale := freshMode != dec.mode || freshPlan != dec.planIdx
	local.cacheChecks++
	if stale {
		local.cacheStale++
	}
	prof.RecordCacheCheck(stale)
	if obs.Enabled() {
		obs.DefaultModelStats.ObserveCacheCheck(stale)
	}
	e.opts.DecisionLog.Append(obs.DecisionRecord{
		Kind:        obs.DecisionKindCache,
		Query:       tag.name,
		RequestID:   tag.reqID,
		Fingerprint: tag.fingerprint,
		Node:        int64(u),
		Features:    row,
		FromCache:   true,
		PredMode:    int(dec.mode),
		PredPlan:    dec.planIdx,
		VoteMargin:  margin,
		ActualValid: actualValid,
		CacheStale:  stale,
	})
}

// betaSweep retains one training node's per-plan sweep measurements for
// the model-β plan-rank audit.
type betaSweep struct {
	node     graph.NodeID
	outcomes []planOutcome
}

// scoreBetaRanks audits model β against the training sweeps: for every
// retained sweep, predict a plan with the trained forest and record the
// prediction's 1-based rank among the sweep's finished plan times
// (1 = the model picked the measured-fastest plan; unfinished
// predictions rank behind every finished plan).
func (e *Engine) scoreBetaRanks(tag queryTag, betaModel *ml.Forest, sweeps []betaSweep) {
	enabled := obs.Enabled()
	votes := make([]int, betaModel.NumClasses())
	for _, s := range sweeps {
		pred := betaModel.PredictInto(e.sigs.Row(s.node), votes)
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
			if predOutcome.done && i != pred && o.took < predOutcome.took {
				rank++
			}
		}
		if finished == 0 {
			continue
		}
		if !predOutcome.done {
			rank = finished + 1
		}
		if enabled {
			obs.DefaultModelStats.ObserveBetaRank(rank)
		}
		if !e.opts.auditing() {
			// The contract pinned by the overhead guard: ShadowRate=0
			// emits no decision records, beta ranks included, even with
			// a log attached.
			continue
		}
		e.opts.DecisionLog.Append(obs.DecisionRecord{
			Kind:        obs.DecisionKindBeta,
			Query:       tag.name,
			RequestID:   tag.reqID,
			Fingerprint: tag.fingerprint,
			Node:        int64(s.node),
			PredPlan:    pred,
			Rank:        rank,
		})
	}
}

// voteMargin returns the forest's winner-minus-runner-up vote share in
// [0, 1] — the calibration axis of /modelz.
func voteMargin(votes []int, trees int) float64 {
	if trees <= 0 {
		return 0
	}
	best, second := 0, 0
	for _, v := range votes {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	return float64(best-second) / float64(trees)
}

// newShadowRNG builds worker w's deterministic sampling stream.
func newShadowRNG(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(shadowSeed(seed, w)))
}
