package psi

import (
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
)

// Strategy selects how a whole-graph PSI evaluation picks the per-node
// method. These are the single-strategy competitors of Figures 9 and 10;
// the learned strategy lives in package smartpsi.
type Strategy int

const (
	// OptimisticOnly evaluates every candidate with the optimistic method.
	OptimisticOnly Strategy = iota
	// PessimisticOnly evaluates every candidate with the pessimistic method.
	PessimisticOnly
	// TwoThreaded races both methods per candidate (Section 4.1).
	TwoThreaded
)

func (s Strategy) String() string {
	switch s {
	case OptimisticOnly:
		return "optimistic-only"
	case PessimisticOnly:
		return "pessimistic-only"
	case TwoThreaded:
		return "two-threaded"
	default:
		return "unknown-strategy"
	}
}

// Result is the outcome of a whole-graph PSI evaluation: the distinct
// data nodes that bind the query pivot, in ascending order, plus work
// counters.
type Result struct {
	Bindings   []graph.NodeID
	Candidates int   // label-matching nodes examined
	Stats      Stats // TwoThreaded: both racers' work, the stopped losers' included
	Elapsed    time.Duration
}

// EvaluateAll runs the full PSI query with a fixed strategy and the
// heuristic plan: the paper's optimistic-only, pessimistic-only and
// two-threaded baselines, and the threshold count of frequent-subgraph
// mining (Section 5.5). A threshold of 0 evaluates every candidate; a
// positive one stops once threshold bindings are found or the remaining
// candidates can no longer reach it, so the threshold is reached exactly
// when len(Bindings) == threshold. A deadline of zero means no limit.
// The work done is in Result.Stats and published on every exit, an
// aborted run's included.
func EvaluateAll(e *Evaluator, strategy Strategy, threshold int, deadline time.Time) (res Result, err error) {
	start := time.Now()
	c, err := plan.Compile(e.query, plan.Heuristic(e.query, e.g))
	if err != nil {
		return Result{}, err
	}
	st := NewState(e.query.Size())
	var raced Stats // the two-threaded races' work, on states Race owns
	defer func() {
		res.Stats = st.Stats()
		res.Stats.Add(raced)
		res.Elapsed = time.Since(start)
		PublishStats(res.Stats)
	}()
	limits := Limits{Deadline: deadline}
	candidates := e.g.NodesWithLabel(e.query.G.Label(e.query.Pivot))
	for i, u := range candidates {
		if threshold > 0 && (len(res.Bindings) == threshold || len(res.Bindings)+len(candidates)-i < threshold) {
			break
		}
		res.Candidates++
		var valid bool
		switch strategy {
		case OptimisticOnly:
			valid, err = e.Evaluate(st, c, u, Optimistic, limits)
		case PessimisticOnly:
			valid, err = e.Evaluate(st, c, u, Pessimistic, limits)
		case TwoThreaded:
			var rr RaceResult
			rr, err = e.Race(c, u, limits)
			valid = rr.Valid
			raced.Add(rr.Stats)
		}
		if err != nil {
			return res, err
		}
		if valid {
			res.Bindings = append(res.Bindings, u)
		}
	}
	return res, nil
}
