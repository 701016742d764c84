package match

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// TurboIsoPlus is the paper's TurboIso⁺ (Section 5.2): TurboIso's
// region-based machinery repurposed for PSI queries. The start vertex is
// forced to the query pivot, and for each pivot candidate the search
// stops at the first embedding — every further embedding would bind the
// same pivot candidate, which PSI does not need.
type TurboIsoPlus struct {
	g *graph.Graph
	q graph.Query
	t *TurboIso
}

// NewTurboIsoPlus returns a TurboIso⁺ engine for pivoted query q.
func NewTurboIsoPlus(g *graph.Graph, q graph.Query) (*TurboIsoPlus, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("match: %v", err)
	}
	t := &TurboIso{g: g, q: q.G}
	t.start = q.Pivot // the pivot anchors every region
	t.buildSpanningTree()
	return &TurboIsoPlus{g: g, q: q, t: t}, nil
}

// Name identifies the engine in experiment output.
func (p *TurboIsoPlus) Name() string { return "turboiso+" }

// PivotBindings evaluates the PSI query: every data node that roots a
// non-empty region with at least one embedding. It reports the number of
// embeddings materialized (at most one per binding plus the failed
// searches' zero).
func (p *TurboIsoPlus) PivotBindings(budget Budget) (bindings []graph.NodeID, embeddings int64, err error) {
	startCands := p.g.NodesWithLabel(p.q.G.Label(p.q.Pivot))
	for _, v := range startCands {
		if p.g.Degree(v) < p.q.G.Degree(p.q.Pivot) {
			continue
		}
		if !budget.Deadline.IsZero() && time.Now().After(budget.Deadline) {
			return bindings, embeddings, ErrBudget
		}
		cr := p.t.exploreRegion(v)
		if cr == nil {
			continue
		}
		order := p.t.regionOrder(cr)
		found := false
		err := enumerate(p.g, p.q.G, order, inRegion(cr), []graph.NodeID{v},
			Budget{Deadline: budget.Deadline}, func(m []graph.NodeID) bool {
				found = true
				return false // stop at the first embedding for this pivot candidate
			})
		if err != nil {
			return bindings, embeddings, err
		}
		if found {
			embeddings++
			bindings = append(bindings, v)
		}
	}
	return bindings, embeddings, nil
}
