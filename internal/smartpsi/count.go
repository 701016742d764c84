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
	// Threshold when Reached, the exact total otherwise.
	Count int
	// Examined is the number of candidates evaluated before the
	// decision (early exit makes this less than the candidate total).
	Examined int
	Elapsed  time.Duration
}

// CountBindingsAtLeast decides whether q has at least threshold distinct
// pivot bindings, stopping as soon as the answer is known in either
// direction — the primitive frequent-subgraph mining needs for MNI
// support (Section 5.5). Candidates are evaluated pessimistically with
// the heuristic plan: threshold queries evaluate only a slice of the
// candidates, which is too few to amortize model training.
func (e *Engine) CountBindingsAtLeast(q graph.Query, threshold int, deadline time.Time) (CountResult, error) {
	start := time.Now()
	if threshold < 1 {
		return CountResult{}, fmt.Errorf("smartpsi: threshold %d < 1", threshold)
	}
	if err := e.checkQuery(q); err != nil {
		return CountResult{}, err
	}
	art, err := e.prepare(q, nil)
	if err != nil {
		return CountResult{}, err
	}
	ev, c := art.ev, art.compiled[0]

	res := CountResult{}
	candidates := e.g.NodesWithLabel(q.G.Label(q.Pivot))
	st := psi.NewState(q.Size())
	for i, u := range candidates {
		// Even if every remaining candidate matched, could we reach the
		// threshold? If not, the answer is already "no".
		if res.Count+(len(candidates)-i) < threshold {
			break
		}
		ok, err := ev.Evaluate(st, c, u, psi.Pessimistic, psi.Limits{Deadline: deadline})
		if err != nil {
			return res, err
		}
		res.Examined++
		if ok {
			res.Count++
			if res.Count >= threshold {
				res.Reached = true
				break
			}
		}
	}
	res.Elapsed = time.Since(start)
	psi.PublishStats(st.Stats())
	return res, nil
}
