package smartpsi

import (
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
)

// Result reports one PSI query evaluation.
type Result struct {
	// Bindings are the distinct valid pivot bindings, ascending.
	Bindings []graph.NodeID

	// TrainTime covers training-node evaluation and model fitting (zero
	// on a warm run); ModelTime covers runtime prediction; together they
	// are the "training and prediction overhead" of Table 4.
	TrainTime time.Duration
	// FitTime is the part of TrainTime spent fitting the model-α and
	// model-β forests; the rest is the training-node evaluation sweep.
	FitTime   time.Duration
	ModelTime time.Duration
	// FilterTime is the candidate filter's build (psi.Evaluator.Filtered),
	// paid by the first warm run of a kept artifact; zero on every other
	// run.
	FilterTime time.Duration
	// EvalTime is the candidate-evaluation wall time (excluding training).
	EvalTime time.Duration
	// TotalTime is the whole Evaluate call.
	TotalTime time.Duration

	// PlanClasses is the number of compiled plans (model β classes; 1 on
	// the no-ML path).
	PlanClasses int
	// Warm is true when the engine's prepared-query cache held a
	// verified-equal query's artifact: nothing was prepared or trained,
	// and every candidate its filter admits took the predict path.
	Warm bool
	// UsedML is false when the candidate set was too small to train on
	// and the engine fell back to pessimistic evaluation throughout.
	UsedML bool

	// Counts are the query's summable facts.
	Counts
	// Profile is the query's execution profile — the EXPLAIN ANALYZE
	// document rendered by `psi-query -explain` and retained by the
	// /profilez flight recorder, sealed from this Result when Run
	// returns. Nil when obs collection is disabled; Profile methods are
	// nil-safe so callers need not check.
	Profile *obs.Profile
}

// Counts are the summable facts of a query: every one is a sum over
// candidates, so the facts of a query split across workers or shards
// (§5.5) are the sums of theirs. Add is the one fold; execute's workers,
// the shard gather and a fleet coordinator's wire all go through it.
type Counts struct {
	// Candidates is the number of label-matching nodes examined.
	Candidates int
	// TrainedNodes is the training-set size this call evaluated (0 on a
	// warm run).
	TrainedNodes int

	// Alpha reports model α's accuracy on the non-training candidates
	// (prediction vs ground truth established by the evaluation itself).
	Alpha AccuracyReport
	// Beta reports model β's in-sample top-1 on the training sweeps it
	// was fitted on (scoreBetaRanks): filled only when the query is
	// collected (obs.Enabled), since scoring costs a prediction per
	// sweep node.
	Beta AccuracyReport
	// CacheHits/CacheMisses count lookups of the candidates' decision
	// slots (§4.2.3; prepared.go).
	CacheHits, CacheMisses int64
	// Filtered counts execute-phase candidates the evaluator refused
	// before any decision (psi.Evaluator.Admits): invalid, with no slot
	// lookup, prediction or ladder. Lookups plus Filtered are the
	// candidates execute ran.
	Filtered int64
	// Flips counts preemptions into the opposite method (state 2);
	// Fallbacks counts state-3 heuristic-plan restarts. Run derives them
	// from the Ladder tallies of rungs 2 and 3 when it returns.
	Flips, Fallbacks int64

	// Depths are the evaluator work counters (recursions, prunes, cap
	// hits, deadline aborts, ...) per plan depth (psi.State.Depths),
	// across training and all candidate workers, added row by row. Work
	// sums them; psi.Funnel derives the candidate funnel from them.
	Depths []psi.Stats

	// ModePicks counts decisions (cached or fresh) per method, in
	// psi.Mode order: optimistic, pessimistic.
	ModePicks [2]int64
	// PlanPicks[i] counts decisions that picked plan i; it is as long as
	// the highest plan index picked, plus one.
	PlanPicks []int64
	// Ladder counts per rung (obs.LadderPredicted..LadderHeuristic) the
	// evaluations that entered it, those that resolved there, and the
	// wall time spent in it.
	Ladder [obs.NumLadderRungs]obs.LadderRung
}

// Add folds o into c. TestMergeIntoCoversAllCounters probes every leaf.
func (c *Counts) Add(o *Counts) {
	c.Candidates += o.Candidates
	c.TrainedNodes += o.TrainedNodes
	c.Alpha.Correct += o.Alpha.Correct
	c.Alpha.Total += o.Alpha.Total
	c.Beta.Correct += o.Beta.Correct
	c.Beta.Total += o.Beta.Total
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Filtered += o.Filtered
	c.Flips += o.Flips
	c.Fallbacks += o.Fallbacks
	for m, n := range o.ModePicks {
		c.ModePicks[m] += n
	}
	for len(c.PlanPicks) < len(o.PlanPicks) {
		c.PlanPicks = append(c.PlanPicks, 0)
	}
	for i, n := range o.PlanPicks {
		c.PlanPicks[i] += n
	}
	for i, r := range o.Ladder {
		c.Ladder[i].Entered += r.Entered
		c.Ladder[i].Resolved += r.Resolved
		c.Ladder[i].Nanos += r.Nanos
	}
	if n := len(o.Depths) - len(c.Depths); n > 0 {
		c.Depths = append(c.Depths, make([]psi.Stats, n)...)
	}
	for d, s := range o.Depths {
		c.Depths[d].Add(s)
	}
}

// Work returns the evaluator work counters summed over plan depths.
func (c *Counts) Work() psi.Stats { return psi.Sum(c.Depths) }

// capture stores what a finished evaluator state counted per plan depth:
// the state's own rows, which Add copies.
func (c *Counts) capture(st *psi.State) { c.Depths = st.Depths() }

// AccuracyReport is a correct/total counter pair.
type AccuracyReport struct {
	Correct, Total int64
}

// Accuracy returns the fraction correct (1.0 when empty).
func (a AccuracyReport) Accuracy() float64 {
	if a.Total == 0 {
		return 1
	}
	return float64(a.Correct) / float64(a.Total)
}

// finish reports the query once, on every exit of Run: its counters and
// evaluator work, summed once here, are added to the registry from the
// Result, and its profile is sealed from the Result.
func (r *queryRun) finish(err error) {
	res := r.res
	// Entering rung 2 or 3 means the rung before it timed out.
	res.Flips = res.Ladder[obs.LadderOpposite].Entered
	res.Fallbacks = res.Ladder[obs.LadderHeuristic].Entered
	if !r.enabled {
		return
	}
	obs.SmartCacheHits.Add(res.CacheHits)
	obs.SmartCacheMisses.Add(res.CacheMisses)
	obs.SmartFlips.Add(res.Flips)
	obs.SmartFallbacks.Add(res.Fallbacks)
	obs.SmartRecoveries.Add(res.Flips + res.Fallbacks)
	obs.SmartModeChecks.Add(res.Alpha.Total)
	obs.SmartMispredicts.Add(res.Alpha.Total - res.Alpha.Correct)
	obs.SmartBetaRankChecks.Add(res.Beta.Total)
	obs.SmartBetaRankTop1.Add(res.Beta.Correct)
	if res.TrainedNodes > 0 { // a finished train; an aborted one records nothing
		obs.SmartTrainedNodes.Add(int64(res.TrainedNodes))
		obs.SmartTrainSeconds.Observe(res.TrainTime.Seconds())
	}
	work := res.Work()
	psi.PublishStats(work)
	if err == nil { // the per-query distributions of a successful query
		obs.SmartQuerySeconds.Observe(res.TotalTime.Seconds())
		obs.SmartRecursionDist.Observe(float64(work.Recursions))
	}
	if res.Profile == nil {
		return
	}
	d := obs.ProfileData{
		Fingerprint:  r.req.Fingerprint,
		Candidates:   res.Candidates,
		Bindings:     len(res.Bindings),
		TrainedNodes: res.TrainedNodes,
		BetaScored:   res.Beta.Total,
		BetaTop1:     res.Beta.Correct,
		TrainNanos:   res.TrainTime.Nanoseconds(),
		FitNanos:     res.FitTime.Nanoseconds(),
		CacheHits:    res.CacheHits,
		CacheMisses:  res.CacheMisses,
		PlanChosen:   slices.Clone(res.PlanPicks),
		Ladder:       slices.Clone(res.Ladder[:]),
		Funnel:       psi.Funnel(res.Depths),
		Work:         psi.RecordWork(work),
	}
	// The method and the model-β class count describe how candidates
	// were decided, so a query that never reached a decision path (no
	// candidates, or a failed prepare) has neither.
	switch {
	case res.Warm:
		d.Method, d.PlanClasses = "ml-warm", res.PlanClasses
	case res.UsedML:
		d.Method, d.PlanClasses = "ml", res.PlanClasses
	case res.PlanClasses > 0:
		d.Method = "pessimistic-heuristic"
	}
	for m, n := range res.ModePicks {
		if n != 0 {
			if d.ModePredicted == nil {
				d.ModePredicted = make(map[string]int64, len(res.ModePicks))
			}
			d.ModePredicted[psi.Mode(m).String()] = n
		}
	}
	if err != nil {
		d.Error = err.Error()
	}
	res.Profile.Seal(d)
}
