package smartpsi

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/obs"
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
	st := psi.NewState(art.q.Size())
	defer r.merge(st) // on every exit: an aborted sweep's work still counts
	// The training rows' features, one flat block for the whole prefix.
	width := e.sigs.Width()
	features := make([]float64, trainCount*width)
	// The per-plan sweep measurements, retained for scoring model β
	// against them (scoreBetaRanks) when the query is collected.
	var sweeps []betaSweep
	for i, pos := range order[:trainCount] {
		if expiredAt(deadline, time.Now()) {
			return 0, psi.ErrDeadline
		}
		u := r.candidates[pos]
		isValid, bestPlan := false, -1
		var outcomes []planOutcome
		var err error
		if i < planSweepNodes && !e.opts.DisablePlanModel {
			// Full per-plan sweep: labels both models.
			isValid, bestPlan, outcomes, err = e.trainOne(art, st, u, deadline, r.enabled)
		} else {
			// Single heuristic-plan evaluation: labels model α only.
			isValid, _, err = e.sweepRun(art, st, 0, u, psi.Limits{Deadline: deadline}, r.enabled)
		}
		if err != nil {
			return 0, err
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
			if r.enabled {
				sweeps = append(sweeps, betaSweep{node: u, outcomes: outcomes, best: bestPlan})
			}
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
	// With no β row (β is ablated, or every sweep node passed the sweep
	// cap) there is no model β: the heuristic plan serves.
	if len(betaDS.Y) > 0 {
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

// betaSweep retains one training node's per-plan sweep measurements and
// the plan that used the fewest units, for scoreBetaRanks.
type betaSweep struct {
	node     graph.NodeID
	outcomes []planOutcome
	best     int
}

// scoreBetaRanks scores model β against the training sweeps: for every
// retained sweep it predicts a plan with the trained forest and counts
// in Counts.Beta whether that plan is the sweep's fastest (finished,
// with the fewest units); finish publishes the tally once. The sweep bounds each plan by the leader's units, so
// that is all it measures: a plan as fast as the leader still finishes,
// but the slower ones are mostly cut off and stay unordered. The score
// is in-sample: the forest was fitted on these very sweep nodes, so its
// top-1 share says how well β fits its labels, not how often it picks
// the fastest plan for an execute-phase candidate, and /modelz and the
// profile say so.
func (e *Engine) scoreBetaRanks(r *queryRun, betaModel *ml.Forest, sweeps []betaSweep) {
	votes := make([]int, betaModel.NumClasses())
	var row []float64
	for _, s := range sweeps {
		row = e.sigs.RowInto(s.node, row)
		o := s.outcomes[betaModel.PredictInto(row, votes)]
		r.res.Beta.Total++
		if o.done && o.units == s.outcomes[s.best].units {
			r.res.Beta.Correct++
		}
	}
}

// trainCheckpoint is one of train's two budget reads between the sweep
// and the fits (0: before α, 1: before β).
func (e *Engine) trainCheckpoint(i int, deadline time.Time) error {
	if e.trainHook != nil {
		e.trainHook(i)
	}
	if expiredAt(deadline, time.Now()) {
		return psi.ErrDeadline
	}
	return nil
}

// sweepStartUnits is the per-plan work limit (psi.Stats.Units) a sweep
// starts at, doubled each round until some plan finishes (§4.2.2): 2 ms
// at ≈ 50 ns a unit. On 40 Human (sizes 4-7) and 40 YouTube 1/50 (size
// 4) queries at Threads 1 on a 2-vCPU VM, the unit-weighted median unit
// cost 65-75 ns on Human and 33-44 ns on YouTube (p10-p90 18-95 ns).
const sweepStartUnits = 40_000

// planOutcome is one plan's measurement in a training sweep: whether it
// finished within the escalating limit, the node's validity under it,
// and the work it took in units. scoreBetaRanks reads retained outcomes
// to score model β's predictions.
type planOutcome struct {
	done  bool
	valid bool
	units int64
}

// trainOne labels a training node by the sampled plans under the
// escalating work limit of Section 4.2.2, returning its ground-truth
// validity, the plan that used the fewest units (-1 past the sweep cap),
// and the per-plan outcomes. Within a round a plan is bounded by the
// leader's units as well: one that has used them can no longer be the
// fastest (ties go to the lower index), and one that needs no more still
// finishes, so the labels are the unbounded sweep's. A plan cut off is
// censored like one over the round's limit: not done, and no planTiming
// record. observe is the query's obs gate.
func (e *Engine) trainOne(art *artifact, st *psi.State, u graph.NodeID, global time.Time, observe bool) (bool, int, []planOutcome, error) {
	results := make([]planOutcome, len(art.compiled))
	// Cap the whole sweep for one node: each round restarts every plan
	// from scratch, so an expensive node would burn rounds across every
	// plan. No round starts past the cap; the node is then labelled by a
	// single unbounded heuristic-plan run and contributes to model α only.
	var used int64
	for limit := int64(sweepStartUnits); used < 32*sweepStartUnits; limit *= 2 {
		best := -1
		for i := range art.compiled {
			bound := limit
			if best >= 0 {
				bound = min(limit, results[best].units)
			}
			ok, units, err := e.sweepRun(art, st, i, u, psi.Limits{Deadline: global, MaxSteps: bound}, observe)
			used += units
			if err == psi.ErrDeadline && !expiredAt(global, time.Now()) {
				continue // over this round's limit or the leader's units
			}
			if err != nil {
				return false, -1, nil, err
			}
			results[i] = planOutcome{done: true, valid: ok, units: units}
			if best < 0 || units < results[best].units {
				best = i
			}
		}
		if best >= 0 {
			return results[best].valid, best, results, nil
		}
	}
	ok, _, err := e.sweepRun(art, st, 0, u, psi.Limits{Deadline: global}, observe)
	return ok, -1, nil, err
}

// sweepRun is one pessimistic training evaluation of u under plan p
// (Section 4.2.1: that method is more stable on average). It returns the
// verdict and the units used; a finished run feeds planTiming and, when
// observed, the latency histogram.
func (e *Engine) sweepRun(art *artifact, st *psi.State, p int, u graph.NodeID, limits psi.Limits, observe bool) (bool, int64, error) {
	t0 := time.Now()
	before := st.Units()
	ok, err := art.ev.Evaluate(st, art.compiled[p], u, psi.Pessimistic, limits)
	units := st.Units() - before
	if err == nil {
		art.timing.record(psi.Pessimistic, p, units)
		if observe {
			obs.SmartPlanSeconds.Observe(time.Since(t0).Seconds())
		}
	}
	return ok, units, err
}
