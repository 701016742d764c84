package smartpsi

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/psi"
)

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
	// execution profile, so one served request is correlatable across
	// the access log and /profilez?request_id= (whose profile carries
	// its model-β tally). The serving layer fingerprints once at
	// admission so the workload sketch and the profile agree; an empty
	// Fingerprint falls back to computing one here when the query is
	// collected.
	ID, Fingerprint string
	// Owns selects the pivot candidates this evaluation answers for (nil:
	// all of them). A shard passes its ownership predicate: verdicts are
	// independent per candidate (§5.5), so the engines of a fleet each
	// run a disjoint share of the candidates on the whole graph, and
	// Result.Candidates, the training sample and Depths describe that
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
	// metric and /modelz site of the query tests it instead of the gate.
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
		// their profiles still pivot by shape; the
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

	// With deep checking on, validate the candidate funnel (per-depth
	// monotone non-increasing stages).
	if invariant.Enabled() {
		if err := invariant.CheckFunnel(psi.Funnel(res.Depths)); err != nil {
			return nil, err
		}
	}
	return res, nil
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
	st := psi.NewState(q.Size())
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

// merge folds one finished evaluator state's work into the Result.
// evaluateSmall and train merge their single state; execute's workers
// fold their Counts. Both go through Counts.Add.
func (r *queryRun) merge(st *psi.State) {
	var c Counts
	c.capture(st)
	r.res.Counts.Add(&c)
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
	var ev *psi.Evaluator
	if art != nil {
		r.res.Warm = true
		ev, r.res.FilterTime = art.warmEvaluator()
	} else {
		rng := rand.New(rand.NewSource(e.opts.Seed))
		// Without model β only the heuristic plan is compiled.
		planRNG := rng
		if e.opts.DisablePlanModel {
			planRNG = nil
		}
		var err error
		if art, err = e.prepare(q, planRNG); err != nil {
			return err
		}
		trained, err := e.train(art, r, order, rng, deadline)
		if err != nil {
			return err
		}
		order = order[trained:]
		ev = art.ev
		if admit {
			// Only a kept artifact is executed again, so only it gets
			// decision slots and, at its first warm hit, a candidate
			// filter: a cold query evaluates each node once, and the
			// filter's build would cost a cheap query more than it saves.
			// Training ran on the unfiltered evaluator, so the models
			// are a cold run's.
			art.decisions = make([]atomic.Uint32, r.labelled)
			e.prepared.store(key, art)
		}
	}
	r.res.PlanClasses = len(art.compiled)
	return e.execute(art, ev, r, order, deadline)
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
