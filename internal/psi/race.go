package psi

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
)

// RaceResult reports the outcome of a two-threaded evaluation of one
// candidate node.
type RaceResult struct {
	Valid  bool
	Winner Mode          // the method that finished first
	Took   time.Duration // wall time of the winning method
	// Stats is both goroutines' work added together. The loser's share
	// is whatever it did before the stop reached it, so it varies from
	// run to run.
	Stats Stats
}

// Race evaluates candidate u with the optimistic and pessimistic methods
// concurrently (the Section 4.1 baseline): each runs in its own
// goroutine, the first to finish cancels the other. Both goroutines get
// fresh States, so the cost the paper criticizes — double resource use
// plus per-node thread churn — is faithfully reproduced. The result
// carries their work on every exit; publishing it is the caller's.
func (e *Evaluator) Race(c *plan.Compiled, u graph.NodeID, limits Limits) (RaceResult, error) {
	type outcome struct {
		valid bool
		err   error
		mode  Mode
		took  time.Duration
		stats Stats
	}
	results := make(chan outcome, 2)
	var stop atomic.Bool
	start := time.Now()
	for _, mode := range []Mode{Optimistic, Pessimistic} {
		go func(m Mode) {
			st := NewState(e.query.Size())
			lim := limits
			lim.Stop = &stop
			valid, err := e.Evaluate(st, c, u, m, lim)
			results <- outcome{valid: valid, err: err, mode: m, took: time.Since(start), stats: st.Stats()}
		}(mode)
	}
	first := <-results
	if first.err == nil {
		stop.Store(true)
	}
	second := <-results // reap the loser
	rr := RaceResult{Stats: first.stats}
	rr.Stats.Add(second.stats)
	switch {
	case first.err == nil:
		rr.Valid, rr.Winner, rr.Took = first.valid, first.mode, first.took
	case second.err == nil:
		// The first finisher failed (deadline/external stop); the
		// second succeeded before noticing.
		rr.Valid, rr.Winner, rr.Took = second.valid, second.mode, second.took
	default:
		return rr, first.err
	}
	return rr, nil
}
