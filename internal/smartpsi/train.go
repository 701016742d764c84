package smartpsi

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/psi"
)

// prepare builds the query-side half of an artifact: the query's
// signatures inside a psi.Evaluator, and the compiled plans. With an rng
// it samples planSamples plans (model β's classes, the heuristic
// plan first); with none it compiles the heuristic plan alone.
func (e *Engine) prepare(q graph.Query, rng *rand.Rand) (*artifact, error) {
	ev, err := psi.NewEvaluator(e.g, q, e.sigs, nil)
	if err != nil {
		return nil, fmt.Errorf("smartpsi: %w", err)
	}
	var plans []plan.Plan
	if rng != nil {
		plans = plan.Sample(q, e.g, planSamples, rng)
	} else {
		plans = []plan.Plan{plan.Heuristic(q, e.g)}
	}
	art := &artifact{q: q, ev: ev, compiled: make([]*plan.Compiled, len(plans))}
	for i, p := range plans {
		if art.compiled[i], err = plan.Compile(q, p); err != nil {
			return nil, fmt.Errorf("smartpsi: plan %d: %w", i, err)
		}
	}
	return art, nil
}

// train is the training phase (Sections 4.2.1, 4.2.2): it shuffles
// order, labels the training prefix by evaluation (filling those
// verdict slots), fits models α and β, and leaves them with the sweep's
// planTiming in art. It returns the training-set size. The budget is
// checked per node, after the sweep and between the two fits; an
// aborted train returns psi.ErrDeadline and its artifact must be
// dropped.
func (e *Engine) train(art *artifact, r *queryRun, order []int32, rng *rand.Rand, deadline time.Time) (int, error) {
	trainStart := time.Now()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	const minTrainFloor = 16 // enough rows for the forests to be useful
	trainCount := min(int(trainFraction*float64(len(order))), maxTrainNodes)
	trainCount = min(max(trainCount, minTrainFloor), len(order)/2)

	art.timing = newPlanTiming(len(art.compiled))
	alphaDS := ml.Dataset{NumClasses: 2}
	betaDS := ml.Dataset{NumClasses: len(art.compiled)}
	st := r.newState(art.q.Size())
	defer r.merge(st) // on every exit: an aborted sweep's work still counts
	// The training rows' features, one flat block for the whole prefix.
	width := e.sigs.Width()
	features := make([]float64, trainCount*width)
	// Retain the per-plan sweep measurements for the model-β plan-rank
	// audit (scoreBetaRanks) when anyone will consume them.
	collectSweeps := r.enabled && !e.opts.DisablePlanModel
	var sweeps []betaSweep
	for i, pos := range order[:trainCount] {
		if expired(deadline) {
			return 0, psi.ErrDeadline
		}
		u := r.candidates[pos]
		var isValid bool
		var bestPlan int
		var err error
		if i < planSweepNodes {
			// Full per-plan sweep: labels both models.
			var outcomes []planOutcome
			isValid, bestPlan, outcomes, err = e.trainOne(art, st, u, deadline, r.enabled)
			if err != nil {
				return 0, err
			}
			if collectSweeps && bestPlan >= 0 {
				sweeps = append(sweeps, betaSweep{node: u, outcomes: outcomes})
			}
		} else {
			// Single heuristic-plan evaluation: labels model α only.
			t0 := time.Now()
			isValid, err = art.ev.Evaluate(st, art.compiled[0], u, psi.Pessimistic, psi.Limits{Deadline: deadline})
			if err != nil {
				return 0, err
			}
			art.timing.record(psi.Pessimistic, 0, time.Since(t0), r.enabled)
			bestPlan = -1
		}
		r.valid[pos] = isValid
		row := e.sigs.RowInto(u, features[i*width:(i+1)*width:(i+1)*width])
		cls := 0
		if isValid {
			cls = 1
		}
		alphaDS.X = append(alphaDS.X, row)
		alphaDS.Y = append(alphaDS.Y, cls)
		if bestPlan >= 0 {
			betaDS.X = append(betaDS.X, row)
			betaDS.Y = append(betaDS.Y, bestPlan)
		}
	}

	// A forest fit runs to completion once started, so the budget is
	// read before each of the two.
	var err error
	if err = e.trainCheckpoint(0, deadline); err != nil {
		return 0, err
	}
	fitStart := time.Now()
	forest := ml.ForestConfig{Seed: e.opts.Seed + 1}
	if !e.opts.DisableTypeModel {
		if art.alpha, err = ml.TrainForest(alphaDS, forest); err != nil {
			return 0, fmt.Errorf("smartpsi: model α: %w", err)
		}
	}
	if err = e.trainCheckpoint(1, deadline); err != nil {
		return 0, err
	}
	if !e.opts.DisablePlanModel {
		if art.beta, err = ml.TrainForest(betaDS, forest); err != nil {
			return 0, fmt.Errorf("smartpsi: model β: %w", err)
		}
	}
	r.res.FitTime = time.Since(fitStart)
	r.res.TrainTime = time.Since(trainStart)
	r.res.TrainedNodes = trainCount
	if art.beta != nil && len(sweeps) > 0 {
		e.scoreBetaRanks(r, art.beta, sweeps)
	}
	return trainCount, nil
}

// trainCheckpoint is one of train's two budget reads between the sweep
// and the fits (0: before α, 1: before β).
func (e *Engine) trainCheckpoint(i int, deadline time.Time) error {
	if e.trainHook != nil {
		e.trainHook(i)
	}
	if expired(deadline) {
		return psi.ErrDeadline
	}
	return nil
}

// planOutcome is one plan's measurement in a training sweep: whether it
// finished within the escalating limit, the node's validity under it,
// and its wall time. scoreBetaRanks replays retained outcomes to rank
// model β's predictions.
type planOutcome struct {
	done  bool
	valid bool
	took  time.Duration
}

// trainOne evaluates a training node under every sampled plan with the
// escalating time limit of Section 4.2.2, returning its ground-truth
// validity, the fastest plan's index, and the per-plan outcomes.
// observe is the query's obs gate.
func (e *Engine) trainOne(art *artifact, st *psi.State, u graph.NodeID, global time.Time, observe bool) (bool, int, []planOutcome, error) {
	results := make([]planOutcome, len(art.compiled))
	limit := e.opts.PlanTimeLimit
	// Cap the whole sweep for one node: expensive nodes would otherwise
	// burn escalation rounds across every plan (each retry restarts from
	// scratch); past the cap the node is labeled by a single unlimited
	// heuristic-plan run and contributes to model α only.
	sweepDeadline := time.Now().Add(32 * e.opts.PlanTimeLimit)
	const maxEscalations = 24
	anyDone := false
	for esc := 0; esc < maxEscalations && !anyDone && time.Now().Before(sweepDeadline); esc++ {
		for i, c := range art.compiled {
			if results[i].done {
				anyDone = true
				continue
			}
			t0 := time.Now()
			lim := t0.Add(limit)
			if !global.IsZero() && global.Before(lim) {
				lim = global
			}
			// The pessimistic method labels training nodes (Section
			// 4.2.1: more stable on average).
			ok, err := art.ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{Deadline: lim})
			took := time.Since(t0)
			if err == psi.ErrDeadline {
				if expired(global) {
					return false, 0, nil, psi.ErrDeadline
				}
				continue
			}
			if err != nil {
				return false, 0, nil, err
			}
			results[i] = planOutcome{done: true, valid: ok, took: took}
			art.timing.record(psi.Pessimistic, i, took, observe)
			anyDone = true
		}
		limit *= 2
	}
	if !anyDone {
		// Pathological node: evaluate plan 0 (heuristic) with only the
		// global budget.
		t0 := time.Now()
		ok, err := art.ev.Evaluate(st, art.compiled[0], u, psi.Pessimistic, psi.Limits{Deadline: global})
		if err != nil {
			return false, 0, nil, err
		}
		took := time.Since(t0)
		art.timing.record(psi.Pessimistic, 0, took, observe)
		results[0] = planOutcome{done: true, valid: ok, took: took}
		return ok, 0, results, nil
	}
	best, bestTook := -1, time.Duration(0)
	var validity bool
	for i, r := range results {
		if r.done && (best < 0 || r.took < bestTook) {
			best, bestTook = i, r.took
			validity = r.valid
		}
	}
	return validity, best, results, nil
}
