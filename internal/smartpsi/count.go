package smartpsi

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/psi"
)

// CountResult reports a threshold count query.
type CountResult struct {
	// Reached is true when at least Threshold distinct bindings exist.
	Reached bool
	// Count is the number of bindings found before stopping: exactly
	// Threshold when Reached; otherwise at most the total, found before
	// the unexamined candidates could no longer make up the difference.
	Count int
	// Examined is the number of candidates evaluated before the
	// decision (early exit makes this less than the candidate total).
	Examined int
	Elapsed  time.Duration
}

// CountBindingsAtLeast decides whether q has at least threshold distinct
// pivot bindings, stopping as soon as the answer is known in either
// direction — the primitive frequent-subgraph mining needs for MNI
// support (Section 5.5). It is psi.EvaluateAll's pessimistic-only run
// with a threshold: threshold queries evaluate only a slice of the
// candidates, which is too few to amortize model training.
func (e *Engine) CountBindingsAtLeast(q graph.Query, threshold int, deadline time.Time) (CountResult, error) {
	start := time.Now()
	if threshold < 1 {
		return CountResult{}, fmt.Errorf("smartpsi: threshold %d < 1", threshold)
	}
	if err := e.checkQuery(q); err != nil {
		return CountResult{}, err
	}
	ev, err := psi.NewEvaluator(e.g, q, e.sigs, nil)
	if err != nil {
		return CountResult{}, fmt.Errorf("smartpsi: %w", err)
	}
	res, err := psi.EvaluateAll(ev, psi.PessimisticOnly, threshold, deadline)
	return CountResult{
		Reached:  len(res.Bindings) >= threshold,
		Count:    len(res.Bindings),
		Examined: res.Candidates,
		Elapsed:  time.Since(start),
	}, err
}
