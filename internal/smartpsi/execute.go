package smartpsi

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/psi"
)

// minBudgetUnits floors the §4.3 rung budget, so a (method, plan)
// averaging a few units does not preempt every costlier candidate:
// 200 µs at sweepStartUnits' ≈ 50 ns a unit.
const minBudgetUnits = 4_000

// execute is prediction + preemptive evaluation (Sections 4.2.3, 4.3)
// of the candidates at the given positions, split across
// Options.Threads workers. It only reads art's models and plans; art's
// planTiming and decision slots are the two concurrent parts, so any
// number of requests may execute one artifact at once. Every worker is
// built (and copies art's planTiming) before any starts.
func (e *Engine) execute(art *artifact, r *queryRun, order []int32, deadline time.Time) error {
	evalStart := time.Now()
	var mu sync.Mutex // guards r.res's Counts and modelNanos
	var modelNanos int64

	workers := max(1, min(e.opts.Threads, len(order)))
	chunk := (len(order) + workers - 1) / workers
	var ws []*worker
	var shares [][]int32
	for lo := 0; lo < len(order); lo += chunk {
		ws = append(ws, newWorker(art, r, deadline))
		shares = append(shares, order[lo:min(lo+chunk, len(order))])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker, positions []int32) {
			defer wg.Done()
			// Merge the worker's counters even on the error paths, so
			// censored runs still account their work.
			defer func() {
				w.exit()
				art.timing.add(w.learned)
				mu.Lock()
				r.res.Counts.Add(&w.Counts)
				modelNanos += w.modelNanos
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
		}(i, w, shares[i])
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

// worker is one candidate-evaluating goroutine's view of a query: the
// shared artifact it reads, the run whose verdict slots it fills, the
// query's global budget, and the state only it touches.
type worker struct {
	art    *artifact
	run    *queryRun
	global time.Time
	st     *psi.State // primary evaluator state; capture copies its rows into Counts
	// timing is the artifact's planTiming as the worker started, plus
	// what it has learned since; learned is that part alone, added to
	// the artifact's when the worker exits.
	timing, learned *planTiming
	// now is the worker's last clock reading. One reading ends a step and
	// starts the next: the end of an attempt is the start of the next
	// candidate's prediction and its budget check, the end of a
	// prediction the start of its first attempt and of the rung budget.
	now time.Time
	// Counts are the worker's share of the query's counts; execute folds
	// them into the Result when the worker exits.
	Counts
	modelNanos int64
	// alpha scores model α's fresh predictions against ground truth: exit
	// stores its diagonal in Counts.Alpha and, when the query is
	// collected, adds the confusion to /modelz.
	alpha obs.AlphaCells

	votesScratch []int     // forest-vote scratch, reused per worker
	rowScratch   []float64 // feature-row scratch (features), reused per worker
}

// newWorker builds one of execute's workers.
func newWorker(art *artifact, r *queryRun, global time.Time) *worker {
	return &worker{art: art, run: r, global: global, st: psi.NewState(art.q.Size()), now: time.Now(),
		timing: art.timing.snapshot(), learned: newPlanTiming(len(art.compiled))}
}

// exit stores what the worker's evaluator state and model-α cells
// counted into its Counts, when it exits, and files the cells in /modelz
// if the query is collected.
func (w *worker) exit() {
	w.capture(w.st)
	w.Alpha = AccuracyReport{Correct: w.alpha.AlphaCorrect(), Total: w.alpha.AlphaTotal()}
	if w.run.enabled {
		obs.DefaultModelStats.AddAlpha(w.alpha)
	}
}

func (w *worker) votes(n int) []int {
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
}

// predict asks the artifact's models for a fresh decision on one
// signature row: model α picks the method (pessimistic when ablated),
// model β the plan (the heuristic plan when ablated or out of range).
// predicted reports whether model α actually voted.
func (w *worker) predict(row []float64) (dec decision, predicted bool) {
	dec.mode = psi.Pessimistic
	if alpha := w.art.alpha; alpha != nil {
		if alpha.PredictInto(row, w.votes(alpha.NumClasses())) == 1 {
			dec.mode = psi.Optimistic
		}
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
// whether the attempt runs under the (method, plan) MaxTime work budget
// or only under the query's global deadline.
type rung struct {
	mode     psi.Mode
	planIdx  int
	budgeted bool
}

// evaluateOne runs the prediction + preemptive pipeline for one
// candidate node and its decision slot. A node the evaluator does not
// admit is invalid in every mode and plan, so it resolves at once
// (Counts.Filtered). Any other gets the slot's decision or a fresh one,
// then the recovery ladder — the predicted method and plan, the
// opposite method on the same plan (recovers from model α errors), the
// predicted method on the heuristic plan (recovers from model β
// errors) — stopping at the first rung that finishes.
func (e *Engine) evaluateOne(w *worker, u graph.NodeID, slot int32) (bool, error) {
	if !w.art.ev.Admits(u) {
		w.Filtered++
		return false, nil
	}
	var dec decision
	var memo *atomic.Uint32
	cached, predicted := false, false
	if w.art.decisions != nil {
		memo = &w.art.decisions[slot]
		dec, cached = decodeDecision(memo.Load())
	}
	if cached {
		w.CacheHits++
	} else {
		w.CacheMisses++
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
		var valid bool
		if valid, err = e.attempt(w, u, i, r); err != nil {
			if err != psi.ErrDeadline || expiredAt(w.global, w.now) {
				break
			}
			continue
		}
		e.scoreAlpha(w, predicted, dec, valid)
		if i == obs.LadderPredicted && memo != nil && !cached {
			memo.Store(encodeDecision(dec))
		}
		return valid, nil
	}
	return false, err
}

// attempt runs rung i of the ladder for candidate u. It is the one place
// an execute-phase candidate evaluation happens: the rung's work budget,
// the evalHook seam, the rung's tally and the planTiming update all live
// here. It returns the run's verdict; its wall time starts at the
// worker's last clock reading and ends at the next one.
func (e *Engine) attempt(w *worker, u graph.NodeID, i int, r rung) (bool, error) {
	t0 := w.now
	limits := psi.Limits{Deadline: w.global}
	if r.budgeted {
		limits.MaxSteps = w.timing.maxUnits(r.mode, r.planIdx)
	}
	before := w.st.Units()
	var valid bool
	var err error
	if e.evalHook != nil {
		valid, err = e.evalHook(i+1, r.mode, r.planIdx)
	} else {
		valid, err = w.art.ev.Evaluate(w.st, w.art.compiled[r.planIdx], u, r.mode, limits)
	}
	units := w.st.Units() - before
	w.now = time.Now()
	took := w.now.Sub(t0)
	rt := &w.Ladder[i]
	rt.Entered++
	rt.Nanos += took.Nanoseconds()
	if err == nil {
		rt.Resolved++
		w.timing.record(r.mode, r.planIdx, units)
		w.learned.record(r.mode, r.planIdx, units)
		if w.run.enabled {
			obs.SmartPlanSeconds.Observe(took.Seconds())
		}
	}
	return valid, err
}

// scoreAlpha records ground truth for one candidate when model α
// actually predicted it: the worker's confusion cells (ground truth is
// free here — the evaluation itself labels the node, §4.2.1).
func (e *Engine) scoreAlpha(w *worker, predicted bool, dec decision, actualValid bool) {
	if predicted {
		w.alpha.Score(dec.mode == psi.Optimistic, actualValid)
	}
}

// planTiming tracks the average work (psi.Stats.Units) of finished
// evaluations per (method, plan), for §4.3's MaxTime budget. An
// artifact's is seeded by the training sweep before it is shared; a
// worker reads a snapshot and adds what it learned when it exits, so mu
// is never taken per attempt.
type planTiming struct {
	mu    sync.Mutex
	cells []unitSum // [mode*plans + plan]
}

type unitSum struct{ sum, n int64 }

func newPlanTiming(plans int) *planTiming { return &planTiming{cells: make([]unitSum, 2*plans)} }

func (t *planTiming) cell(mode psi.Mode, planIdx int) *unitSum {
	return &t.cells[int(mode)*len(t.cells)/2+planIdx]
}

// record adds one finished evaluation.
func (t *planTiming) record(mode psi.Mode, planIdx int, units int64) {
	c := t.cell(mode, planIdx)
	c.sum += units
	c.n++
}

// snapshot returns a copy of t's tallies.
func (t *planTiming) snapshot() *planTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &planTiming{cells: slices.Clone(t.cells)}
}

// add folds o's tallies into t.
func (t *planTiming) add(o *planTiming) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range o.cells {
		t.cells[i].sum += c.sum
		t.cells[i].n += c.n
	}
}

// maxUnits returns 2x the average observed work for (mode, plan)
// (Section 4.3), floored at minBudgetUnits. Modes or plans without
// observations borrow the other method's average for the same plan,
// then the largest average of any.
func (t *planTiming) maxUnits(mode psi.Mode, planIdx int) int64 {
	avg := t.cell(mode, planIdx).avg()
	if avg == 0 {
		avg = t.cell(mode.Opposite(), planIdx).avg()
	}
	if avg == 0 {
		for _, c := range t.cells {
			avg = max(avg, c.avg())
		}
	}
	return max(2*avg, minBudgetUnits)
}

func (c *unitSum) avg() int64 {
	if c.n == 0 {
		return 0
	}
	return c.sum / c.n
}
