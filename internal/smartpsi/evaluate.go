package smartpsi

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psi"
)

// Result reports one PSI query evaluation.
type Result struct {
	// Bindings are the distinct valid pivot bindings, ascending.
	Bindings []graph.NodeID
	// Candidates is the number of label-matching nodes examined.
	Candidates int

	// TrainTime covers training-node evaluation and model fitting (zero
	// on a warm run); ModelTime covers runtime prediction; together they
	// are the "training and prediction overhead" of Table 4.
	TrainTime time.Duration
	// FitTime is the part of TrainTime spent fitting the model-α and
	// model-β forests; the rest is the training-node evaluation sweep.
	FitTime   time.Duration
	ModelTime time.Duration
	// EvalTime is the candidate-evaluation wall time (excluding training).
	EvalTime time.Duration
	// TotalTime is the whole Evaluate call.
	TotalTime time.Duration

	// TrainedNodes is the training-set size this call evaluated (0 on a
	// warm run); PlanClasses the number of compiled plans (model β
	// classes; 1 on the no-ML path).
	TrainedNodes int
	PlanClasses  int
	// Warm is true when the engine's prepared-query cache held a
	// verified-equal query's artifact: nothing was prepared or trained,
	// and every candidate took the predict path.
	Warm bool

	// Alpha reports model α's accuracy on the non-training candidates
	// (prediction vs ground truth established by the evaluation itself).
	Alpha AccuracyReport

	// CacheHits/CacheMisses count lookups of the candidates' decision
	// slots (§4.2.3; prepared.go).
	CacheHits, CacheMisses int64
	// Flips counts preemptions into the opposite method (state 2);
	// Fallbacks counts state-3 heuristic-plan restarts. Run copies them
	// from the Ladder tallies of rungs 2 and 3 when it returns.
	Flips, Fallbacks int64
	// UsedML is false when the candidate set was too small to train on
	// and the engine fell back to pessimistic evaluation throughout.
	UsedML bool
	// Work aggregates the evaluator work counters (recursions, prunes,
	// cap hits, deadline aborts, ...) across training and all candidate
	// workers, merged with the canonical psi.Stats.Add.
	Work psi.Stats

	// ShadowModeRuns / ShadowPlanRuns count the sampled shadow audits
	// (Options.ShadowRate); ShadowTimeouts counts counterfactuals
	// censored by the 16x-primary shadow budget.
	ShadowModeRuns, ShadowPlanRuns, ShadowTimeouts int64
	// Regret totals the audited decisions' regret: max(0, primary −
	// counterfactual) wall time, summed over this query's shadow runs.
	Regret time.Duration
	// ShadowWork aggregates the counterfactual evaluators' work. Audits
	// never contribute to Work: primary accounting must be identical
	// with auditing on or off.
	ShadowWork psi.Stats
	// Tallies are the query's decision picks, recovery-ladder rungs and
	// candidate funnel.
	Tallies
	// Profile is the query's execution profile — the EXPLAIN ANALYZE
	// document rendered by `psi-query -explain` and retained by the
	// /profilez flight recorder, sealed from this Result when Run
	// returns. Nil when obs collection is disabled; Profile methods are
	// nil-safe so callers need not check.
	Profile *obs.Profile
}

// Tallies are the per-decision facts of a query: what the models picked
// and how the §4.3 recovery ladder ran, per candidate evaluated outside
// training, plus the evaluator's per-depth candidate funnel. Workers
// count them in plain fields and Run reports them once, into the
// profile; shard.Merge sums them across shards.
type Tallies struct {
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
	// Funnel is the per-depth candidate funnel across training and all
	// workers; it is collected only while obs collection is on.
	Funnel obs.Funnel
}

// Add folds o into t.
func (t *Tallies) Add(o *Tallies) {
	for m, n := range o.ModePicks {
		t.ModePicks[m] += n
	}
	for len(t.PlanPicks) < len(o.PlanPicks) {
		t.PlanPicks = append(t.PlanPicks, 0)
	}
	for i, n := range o.PlanPicks {
		t.PlanPicks[i] += n
	}
	for i, r := range o.Ladder {
		t.Ladder[i].Entered += r.Entered
		t.Ladder[i].Resolved += r.Resolved
		t.Ladder[i].Nanos += r.Nanos
	}
	t.Funnel.Merge(&o.Funnel)
}

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

// minDeadline floors the preemption budget so timer quantization cannot
// starve legitimate evaluations.
const minDeadline = 200 * time.Microsecond

// Request is one PSI evaluation: the query and what the serving layer
// knows about it.
type Request struct {
	Query graph.Query
	// Deadline bounds the evaluation (zero: none). When it passes
	// mid-query the evaluation aborts with psi.ErrDeadline; partial
	// results are discarded, matching how the paper's 24-hour task limit
	// censors runs.
	Deadline time.Time
	// ID is the serving-layer request ID (X-Request-ID) and Fingerprint
	// the query's canonical shape key; both are threaded into the
	// execution profile and the audit records /modelz retains, so one
	// served request is correlatable across the access log,
	// /profilez?request_id= and /modelz?format=json's recent list. The
	// serving layer fingerprints once at admission so the workload
	// sketch, the profile and the audit records all agree; an empty
	// Fingerprint falls back to computing one here when the query is
	// collected.
	ID, Fingerprint string
	// Owns selects the pivot candidates this evaluation answers for (nil:
	// all of them). A shard passes its ownership predicate: verdicts are
	// independent per candidate (§5.5), so the engines of a fleet each
	// run a disjoint share of the candidates on the whole graph, and
	// Result.Candidates, the training sample and Work describe that
	// share only.
	Owns func(graph.NodeID) bool
}

// Evaluate runs the full SmartPSI pipeline on q with no time budget.
func (e *Engine) Evaluate(q graph.Query) (*Result, error) {
	return e.Run(Request{Query: q})
}

// EvaluateBudget is Evaluate bounded by a global deadline (zero: none).
func (e *Engine) EvaluateBudget(q graph.Query, deadline time.Time) (*Result, error) {
	return e.Run(Request{Query: q, Deadline: deadline})
}

// EvaluateTagged is EvaluateBudget with a request ID and fingerprint.
func (e *Engine) EvaluateTagged(q graph.Query, deadline time.Time, requestID, fingerprint string) (*Result, error) {
	return e.Run(Request{Query: q, Deadline: deadline, ID: requestID, Fingerprint: fingerprint})
}

// queryRun is the per-request state train and execute share: the
// request and the verdict slots and Result they fill. Everything that
// outlives the request lives in the artifact.
type queryRun struct {
	req  Request
	name string // "" when the query is not collected
	// enabled is obs.Enabled() as read once when the query started; every
	// metric and audit site of the query tests it instead of the gate.
	enabled bool

	// candidates are the pivot-labelled data nodes the request owns,
	// ascending; valid[i] is candidates[i]'s verdict. Each position is
	// written by exactly one goroutine (training, or the worker that owns
	// it).
	candidates []graph.NodeID
	valid      []bool
	// labelled is the number of pivot-labelled data nodes, owned or not:
	// an artifact's decision slots. slots[i] is candidates[i]'s slot,
	// its position among them; nil when the request owns them all and
	// candidates[i] is slot i.
	labelled int
	slots    []int32
	res      *Result
}

// slot returns the decision slot of the candidate at position i.
func (r *queryRun) slot(i int32) int32 {
	if r.slots == nil {
		return i
	}
	return r.slots[i]
}

// newState returns an evaluator state for a query of n nodes, counting
// the candidate funnel when the query is collected.
func (r *queryRun) newState(n int) *psi.State {
	st := psi.NewState(n)
	if r.enabled {
		st.SetFunnel(&obs.Funnel{})
	}
	return st
}

// expired reports whether a budget (zero: none) has run out.
func expired(deadline time.Time) bool {
	return expiredAt(deadline, time.Now())
}

// expiredAt reports whether a budget (zero: none) had run out at now.
func expiredAt(deadline, now time.Time) bool {
	return !deadline.IsZero() && now.After(deadline)
}

// Run is the one evaluation path; Evaluate, EvaluateBudget and
// EvaluateTagged adapt to it. A query with enough candidates to train on
// runs prepare → train → execute; when the engine's prepared-query cache
// holds a verified-equal query's artifact the first two are skipped and
// every candidate goes through execute (Result.Warm).
func (e *Engine) Run(req Request) (_ *Result, retErr error) {
	start := time.Now()
	q, deadline := req.Query, req.Deadline
	enabled := obs.Enabled()
	res := &Result{}
	r := &queryRun{req: req, enabled: enabled, res: res}
	if enabled {
		r.name = fmt.Sprintf("smartpsi/q%d.p%d", q.Size(), int(q.Pivot))
		obs.SmartQueries.Inc()
		res.Profile = obs.StartProfile(r.name, req.ID, req.Fingerprint)
	}
	// Record the query on every exit, errors included, so aborted
	// (deadline/stop) queries are accounted and retained too.
	defer func() { r.finish(retErr) }()
	// Every request is validated, warm or not: the cache lookup hashes
	// and compares the query's adjacency and must not walk a corrupt one.
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	if enabled && req.Fingerprint == "" {
		// Non-serving entry points (CLIs, tests) fingerprint here so
		// their profiles and audit records still pivot by shape; the
		// serving layer passes one in instead.
		r.req.Fingerprint = fsm.PivotFingerprint(q, 0).String()
	}

	r.candidates = e.g.NodesWithLabel(q.G.Label(q.Pivot))
	r.labelled = len(r.candidates)
	if req.Owns != nil {
		// Filtered once, ahead of the train/execute split: everything
		// downstream sees only the owned candidates, each with its slot.
		owned := make([]graph.NodeID, 0, len(r.candidates))
		for i, u := range r.candidates {
			if req.Owns(u) {
				owned = append(owned, u)
				r.slots = append(r.slots, int32(i))
			}
		}
		r.candidates = owned
	}
	r.valid = make([]bool, len(r.candidates))
	res.Candidates = len(r.candidates)

	var err error
	switch {
	case len(r.candidates) == 0:
	case len(r.candidates) < MinTrainNodes:
		err = e.evaluateSmall(q, r, deadline)
	default:
		err = e.evaluateML(q, r, deadline)
	}
	if err != nil {
		return nil, err
	}
	if err := e.collect(q, r); err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)

	// The per-query distributions of a successful query. With deep
	// checking on, also validate the candidate funnel (per-depth
	// monotone non-increasing stages).
	if enabled {
		obs.SmartQuerySeconds.Observe(res.TotalTime.Seconds())
		obs.SmartRecursionDist.Observe(float64(res.Work.Recursions))
		if e.opts.auditing() {
			obs.SmartQueryRegretSeconds.Observe(res.Regret.Seconds())
		}
		tot := res.Funnel.Totals()
		obs.SmartFunnelGenerated.Observe(float64(tot.Generated))
		obs.SmartFunnelDegOK.Observe(float64(tot.DegOK))
		obs.SmartFunnelSigOK.Observe(float64(tot.SigOK))
		obs.SmartFunnelRecursed.Observe(float64(tot.Recursed))
		obs.SmartFunnelMatched.Observe(float64(tot.Matched))
	}
	if invariant.Enabled() {
		if err := invariant.CheckFunnel(&res.Funnel); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finish reports the query once, on every exit of Run: its counters and
// evaluator work are added to the registry from the Result, and its
// profile is sealed from the Result.
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
	if res.TrainedNodes > 0 { // a finished train; an aborted one records nothing
		obs.SmartTrainedNodes.Add(int64(res.TrainedNodes))
		obs.SmartTrainSeconds.Observe(res.TrainTime.Seconds())
	}
	psi.PublishStats(res.Work)
	if res.Profile == nil {
		return
	}
	d := obs.ProfileData{
		Fingerprint:    r.req.Fingerprint,
		Candidates:     res.Candidates,
		Bindings:       len(res.Bindings),
		TrainedNodes:   res.TrainedNodes,
		TrainNanos:     res.TrainTime.Nanoseconds(),
		FitNanos:       res.FitTime.Nanoseconds(),
		CacheHits:      res.CacheHits,
		CacheMisses:    res.CacheMisses,
		ShadowModeRuns: res.ShadowModeRuns,
		ShadowPlanRuns: res.ShadowPlanRuns,
		ShadowTimeouts: res.ShadowTimeouts,
		RegretNanos:    res.Regret.Nanoseconds(),
		PlanChosen:     slices.Clone(res.PlanPicks),
		Ladder:         slices.Clone(res.Ladder[:]),
		Funnel:         slices.Clone(res.Funnel.Depths),
		Work:           psi.RecordWork(res.Work),
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

// checkQuery rejects queries no evaluation path can run: disconnected
// or inconsistent query graphs, and labels outside the data alphabet.
func (e *Engine) checkQuery(q graph.Query) error {
	if err := q.Validate(); err != nil {
		return fmt.Errorf("smartpsi: %w", err)
	}
	if q.G.NumLabels() > e.sigs.Width() {
		return fmt.Errorf("smartpsi: query uses %d labels, data graph only %d", q.G.NumLabels(), e.sigs.Width())
	}
	return nil
}

// evaluateSmall is the no-ML path: too few candidates to train on, so
// every one is evaluated pessimistically under the heuristic plan — the
// only plan this path compiles.
func (e *Engine) evaluateSmall(q graph.Query, r *queryRun, deadline time.Time) error {
	art, err := e.prepare(q, nil)
	if err != nil {
		return err
	}
	r.res.PlanClasses = len(art.compiled)
	evalStart := time.Now()
	st := r.newState(q.Size())
	defer r.merge(st) // on every exit: an aborted run's work still counts
	for i, u := range r.candidates {
		ok, err := art.ev.Evaluate(st, art.compiled[0], u, psi.Pessimistic, psi.Limits{Deadline: deadline})
		if err != nil {
			return err
		}
		r.valid[i] = ok
	}
	r.res.EvalTime = time.Since(evalStart)
	return nil
}

// merge folds one finished evaluator state's work and funnel into the
// Result. evaluateSmall and train merge their single state; execute's
// workers merge through mergeInto.
func (r *queryRun) merge(st *psi.State) {
	r.res.Work.Add(st.Stats())
	r.res.Funnel.Merge(st.Funnel())
}

// evaluateML is the model-driven path. A cache hit goes straight to
// execute with every candidate on the predict path; a miss is the
// paper's per-query pipeline, and its artifact is kept when this exact
// query was seen before.
func (e *Engine) evaluateML(q graph.Query, r *queryRun, deadline time.Time) error {
	r.res.UsedML = true
	if r.enabled {
		obs.SmartQueriesML.Inc()
	}
	// order holds candidate positions: identity on a warm run, shuffled
	// by train (which consumes its prefix) on a cold one.
	order := make([]int32, len(r.candidates))
	for i := range order {
		order[i] = int32(i)
	}
	art, key, admit := e.prepared.lookup(q)
	if art != nil {
		r.res.Warm = true
	} else {
		rng := rand.New(rand.NewSource(e.opts.Seed))
		var err error
		if art, err = e.prepare(q, rng); err != nil {
			return err
		}
		trained, err := e.train(art, r, order, rng, deadline)
		if err != nil {
			return err
		}
		order = order[trained:]
		if admit {
			// Only a kept artifact is executed again, so only it gets
			// decision slots: a cold query evaluates each node once.
			art.decisions = make([]atomic.Uint32, r.labelled)
			e.prepared.store(key, art)
		}
	}
	r.res.PlanClasses = len(art.compiled)
	return e.execute(art, r, order, deadline)
}

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

// execute is prediction + preemptive evaluation (Sections 4.2.3, 4.3)
// of the candidates at the given positions, split across
// Options.Threads workers. It only reads art's models and plans; art's
// planTiming and decision slots are the two concurrent parts, so any
// number of requests may execute one artifact at once.
func (e *Engine) execute(art *artifact, r *queryRun, order []int32, deadline time.Time) error {
	evalStart := time.Now()
	var mu sync.Mutex // guards r.res's counters and modelNanos
	var modelNanos int64

	workers := e.opts.Threads
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (len(order) + workers - 1) / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(order) {
			hi = len(order)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(i int, positions []int32) {
			defer wg.Done()
			w := e.newWorker(art, r, deadline, i)
			// Merge the worker's counters even on the error paths, so
			// censored runs still account their work.
			defer func() {
				w.work = w.st.Stats()
				if f := w.st.Funnel(); f != nil {
					w.Funnel = *f
				}
				if w.shadowState != nil {
					w.shadowWork = w.shadowState.Stats()
				}
				w.flushDecisions()
				mu.Lock()
				w.mergeInto(r.res, &modelNanos)
				mu.Unlock()
			}()
			for _, pos := range positions {
				if expiredAt(deadline, w.now) {
					errs[i] = psi.ErrDeadline
					return
				}
				ok, err := e.evaluateOne(w, r.candidates[pos], r.slot(pos))
				if err != nil {
					errs[i] = err
					return
				}
				r.valid[pos] = ok
			}
		}(w, order[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.res.EvalTime = time.Since(evalStart)
	r.res.ModelTime = time.Duration(modelNanos)
	return nil
}

// collect projects the verdict slots into the binding list. Candidates
// are ascending (graph.NodesWithLabel), so the bindings come out sorted;
// with deep checking enabled the result path's contract (strictly
// ascending, in range, pivot-labeled bindings) is validated.
func (e *Engine) collect(q graph.Query, r *queryRun) error {
	for i, ok := range r.valid {
		if ok {
			r.res.Bindings = append(r.res.Bindings, r.candidates[i])
		}
	}
	if invariant.Enabled() {
		return invariant.CheckBindings(e.g, q, r.res.Bindings)
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

// worker is one candidate-evaluating goroutine's view of a query: the
// shared artifact it reads, the run whose verdict slots it fills, the
// query's global budget, and the state only it touches.
type worker struct {
	art    *artifact
	run    *queryRun
	global time.Time
	st     *psi.State // primary evaluator state; its Stats are Result.Work
	// now is the worker's last clock reading. One reading ends a step and
	// starts the next: the end of an attempt is the start of the next
	// candidate's prediction and its budget check, the end of a
	// prediction the start of its first attempt and of the rung budget.
	now time.Time
	workerCounters
	// audits and mismatches are the worker's shadow-audit findings, filed
	// by flushDecisions when it exits.
	audits     []obs.DecisionRecord
	mismatches int
}

// newWorker builds execute's i-th worker.
func (e *Engine) newWorker(art *artifact, r *queryRun, global time.Time, i int) *worker {
	w := &worker{art: art, run: r, global: global, st: r.newState(art.q.Size()), now: time.Now()}
	if e.opts.auditing() {
		// Shadow audits get their own sampling stream and their own
		// evaluator state: counterfactual work must land in ShadowWork,
		// never in the primary accounting.
		w.rng = newShadowRNG(e.opts.Seed, i)
		w.shadowState = psi.NewState(art.q.Size())
	}
	return w
}

type workerCounters struct {
	cacheHits, cacheMisses int64
	modelNanos             int64
	// alpha scores model α's fresh predictions against ground truth: it
	// becomes Result.Alpha, and flushDecisions adds it to /modelz.
	alpha obs.AlphaCells
	// Tallies holds the decision picks and ladder rungs, and the primary
	// state's funnel captured at exit.
	Tallies
	// Shadow-audit counters (Options.ShadowRate; see shadow.go).
	shadowModeRuns, shadowPlanRuns, shadowTimeouts int64
	regretNanos                                    int64
	work                                           psi.Stats // the worker State's counters, captured at exit
	shadowWork                                     psi.Stats // the shadow State's counters, captured at exit

	// Non-counter scratch (exempt from the mergeInto coverage test).
	votesScratch []int      // forest-vote scratch, reused per worker
	rowScratch   []float64  // feature-row scratch (features), reused per worker
	rng          *rand.Rand // deterministic shadow-sampling stream
	shadowState  *psi.State // counterfactual evaluator state (nil unless auditing)
}

// mergeInto folds one worker's counters into the shared result. The
// caller holds the result mutex. Evaluator work merges through the
// canonical psi.Stats.Add so new Stats fields propagate automatically;
// TestMergeIntoCoversAllCounters probes every int64 leaf (array and
// slice elements included) and fails with the paths of any this
// function forgets.
func (w *workerCounters) mergeInto(res *Result, modelNanos *int64) {
	res.CacheHits += w.cacheHits
	res.CacheMisses += w.cacheMisses
	res.Alpha.Correct += w.alpha.AlphaCorrect()
	res.Alpha.Total += w.alpha.AlphaTotal()
	res.Tallies.Add(&w.Tallies)
	res.ShadowModeRuns += w.shadowModeRuns
	res.ShadowPlanRuns += w.shadowPlanRuns
	res.ShadowTimeouts += w.shadowTimeouts
	res.Regret += time.Duration(w.regretNanos)
	res.Work.Add(w.work)
	res.ShadowWork.Add(w.shadowWork)
	*modelNanos += w.modelNanos
}

func (w *workerCounters) votes(n int) []int {
	if cap(w.votesScratch) < n {
		w.votesScratch = make([]int, n)
	}
	return w.votesScratch[:n]
}

// features returns node u's signature row, the models' feature vector,
// in the worker's scratch row: it is valid until the next call.
func (w *worker) features(u graph.NodeID) []float64 {
	w.rowScratch = w.art.ev.DataSignatures().RowInto(u, w.rowScratch)
	return w.rowScratch
}

type decision struct {
	mode    psi.Mode
	planIdx int
	// lead is model α's winning class's votes minus the runner-up's; 0
	// when no model predicted. A decision read from a slot carries the
	// lead of the prediction that filled it.
	lead int
}

// margin is the decision's vote margin in [0, 1], lead / trees: the
// calibration axis of /modelz.
func (w *worker) margin(dec decision) float64 {
	if w.art.alpha == nil {
		return 0
	}
	return float64(dec.lead) / float64(w.art.alpha.NumTrees())
}

// predict asks the artifact's models for a fresh decision on one
// signature row: model α picks the method (pessimistic when ablated),
// model β the plan (the heuristic plan when ablated or out of range).
// predicted reports whether model α actually voted.
func (w *worker) predict(row []float64) (dec decision, predicted bool) {
	dec.mode = psi.Pessimistic
	if alpha := w.art.alpha; alpha != nil {
		votes := w.votes(alpha.NumClasses())
		if alpha.PredictInto(row, votes) == 1 {
			dec.mode = psi.Optimistic
		}
		dec.lead = voteLead(votes)
		predicted = true
	}
	if beta := w.art.beta; beta != nil {
		dec.planIdx = beta.PredictInto(row, w.votes(beta.NumClasses()))
		if dec.planIdx >= len(w.art.compiled) {
			dec.planIdx = 0
		}
	}
	return dec, predicted
}

// rung is one step of the §4.3 recovery ladder: a method, a plan, and
// whether the attempt runs under the (method, plan) MaxTime budget or
// only under the query's global one.
type rung struct {
	mode     psi.Mode
	planIdx  int
	budgeted bool
}

// evaluateOne runs the prediction + preemptive pipeline for one
// candidate node and its decision slot: the slot's decision or a fresh
// one, then the recovery ladder — the predicted method and plan, the
// opposite method on the same plan (recovers from model α errors), the
// predicted method on the heuristic plan (recovers from model β
// errors) — stopping at the first rung that finishes. A rung-1 resolution additionally runs the sampled shadow
// audits (shadow.go); rungs 2–3 never do — they are already
// counterfactuals.
func (e *Engine) evaluateOne(w *worker, u graph.NodeID, slot int32) (bool, error) {
	var dec decision
	var memo *atomic.Uint32
	cached, predicted := false, false
	if w.art.decisions != nil {
		memo = &w.art.decisions[slot]
		dec, cached = decodeDecision(memo.Load())
	}
	if cached {
		w.cacheHits++
	} else {
		w.cacheMisses++
		dec, predicted = w.predict(w.features(u))
		now := time.Now()
		w.modelNanos += now.Sub(w.now).Nanoseconds()
		w.now = now
	}
	w.ModePicks[dec.mode]++
	for len(w.PlanPicks) <= dec.planIdx {
		w.PlanPicks = append(w.PlanPicks, 0)
	}
	w.PlanPicks[dec.planIdx]++

	ladder := [obs.NumLadderRungs]rung{
		obs.LadderPredicted: {dec.mode, dec.planIdx, !e.opts.DisablePreemption},
		obs.LadderOpposite:  {dec.mode.Opposite(), dec.planIdx, true},
		obs.LadderHeuristic: {dec.mode, 0, false},
	}
	var err error
	for i, r := range ladder {
		var ok bool
		var took time.Duration
		if ok, took, err = e.attempt(w, u, i, r); err != nil {
			if err != psi.ErrDeadline || expiredAt(w.global, w.now) {
				break
			}
			continue
		}
		e.scoreAlpha(w, predicted, dec, ok)
		if i == obs.LadderPredicted {
			if memo != nil && !cached {
				memo.Store(encodeDecision(dec))
			}
			if e.opts.auditing() {
				p := primaryRun{u: u, row: w.features(u), dec: dec, cached: cached, valid: ok, took: took}
				err := e.auditDecision(w, p)
				// The audit's time is no candidate's model or rung time.
				w.now = time.Now()
				if err != nil {
					return false, err
				}
			}
		}
		return ok, nil
	}
	return false, err
}

// attempt runs rung i of the ladder for candidate u. It is the one place
// an execute-phase candidate evaluation happens: the rung's deadline,
// the evalHook seam, the rung's tally and the planTiming update all live
// here. The attempt starts at the worker's last clock reading and its
// end is the next one.
func (e *Engine) attempt(w *worker, u graph.NodeID, i int, r rung) (bool, time.Duration, error) {
	t0 := w.now
	limit := w.global
	if r.budgeted {
		if d := t0.Add(w.art.timing.maxTime(r.mode, r.planIdx)); limit.IsZero() || d.Before(limit) {
			limit = d
		}
	}
	var ok bool
	var err error
	if e.evalHook != nil {
		ok, err = e.evalHook(i+1, r.mode, r.planIdx)
	} else {
		ok, err = w.art.ev.Evaluate(w.st, w.art.compiled[r.planIdx], u, r.mode, psi.Limits{Deadline: limit})
	}
	w.now = time.Now()
	took := w.now.Sub(t0)
	rt := &w.Ladder[i]
	rt.Entered++
	rt.Nanos += took.Nanoseconds()
	if err == nil {
		rt.Resolved++
		w.art.timing.record(r.mode, r.planIdx, took, w.run.enabled)
	}
	return ok, took, err
}

// scoreAlpha records ground truth for one candidate when model α
// actually predicted it: the worker's confusion and vote-margin
// calibration cells (ground truth is free here — the evaluation itself
// labels the node, §4.2.1).
func (e *Engine) scoreAlpha(w *worker, predicted bool, dec decision, actualValid bool) {
	if predicted {
		w.alpha.Score(dec.mode == psi.Optimistic, actualValid, w.margin(dec))
	}
}

// planTiming tracks average evaluation times per (method, plan), feeding
// the MaxTime budget of Section 4.3. It belongs to an artifact: seeded by
// the training sweep, then refined by every execute of that artifact.
type planTiming struct {
	mu  sync.Mutex
	sum [2][]time.Duration
	n   [2][]int64
}

func newPlanTiming(plans int) *planTiming {
	t := &planTiming{}
	for m := 0; m < 2; m++ {
		t.sum[m] = make([]time.Duration, plans)
		t.n[m] = make([]int64, plans)
	}
	return t
}

// record adds one finished evaluation; observe (the query's obs gate)
// also feeds the per-evaluation histogram.
func (t *planTiming) record(mode psi.Mode, planIdx int, took time.Duration, observe bool) {
	if observe {
		obs.SmartPlanSeconds.Observe(took.Seconds())
	}
	t.mu.Lock()
	t.sum[mode][planIdx] += took
	t.n[mode][planIdx]++
	t.mu.Unlock()
}

// maxTime returns 2x the average observed time for (mode, plan)
// (Section 4.3). Modes or plans without observations borrow the other
// method's average for the same plan, then any average, then the floor.
func (t *planTiming) maxTime(mode psi.Mode, planIdx int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	avg := t.avgLocked(int(mode), planIdx)
	if avg == 0 {
		avg = t.avgLocked(int(mode.Opposite()), planIdx)
	}
	if avg == 0 {
		for m := 0; m < 2; m++ {
			for p := range t.n[m] {
				if a := t.avgLocked(m, p); a > avg {
					avg = a
				}
			}
		}
	}
	budget := 2 * avg
	if budget < minDeadline {
		budget = minDeadline
	}
	return budget
}

func (t *planTiming) avgLocked(m, p int) time.Duration {
	if t.n[m][p] == 0 {
		return 0
	}
	return t.sum[m][p] / time.Duration(t.n[m][p])
}
