// Package match implements full subgraph-isomorphism engines: the
// competitors SmartPSI is evaluated against in the paper (Section 5.2).
//
// Three engines are provided: a generic label/degree-filtered
// backtracking matcher (the classic Ullmann-style baseline), a
// TurboIso-style engine built on per-region candidate exploration, and a
// CFL-Match-style engine built on core-forest decomposition with
// iterated candidate refinement. All three enumerate every embedding of
// the query; PSIViaEnumeration and TurboIsoPlus adapt them to pivoted
// queries the way existing applications do (project the pivot column,
// or stop at the first embedding per pivot candidate).
//
// The engines reproduce the published algorithms' structure and search
// behavior, not their exact engineering: TurboIso's NEC-tree merging and
// CFL-Match's leaf compression are simplified to plain enumeration
// (documented in DESIGN.md) since the experiments need embedding counts,
// which compression does not change.
package match

import (
	"errors"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
)

// ErrBudget reports that an enumeration exceeded its budget (deadline or
// embedding cap).
var ErrBudget = errors.New("match: enumeration budget exceeded")

// Budget bounds an enumeration. The zero value means unlimited.
type Budget struct {
	// Deadline aborts the enumeration once passed (zero: none).
	Deadline time.Time
	// MaxEmbeddings aborts after this many embeddings (0: unlimited).
	MaxEmbeddings int64
}

// VisitFunc receives each embedding as a query-node-indexed slice of data
// nodes (mapping[q] = data node bound to query node q). The slice is
// reused between calls; copy it to retain it. Return false to stop the
// enumeration early (not an error).
type VisitFunc func(mapping []graph.NodeID) bool

// Engine enumerates all embeddings of one query in one data graph.
type Engine interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Enumerate calls fn for every embedding, in an engine-specific
	// order. It returns ErrBudget if the budget ran out, nil otherwise
	// (including when fn stopped the enumeration).
	Enumerate(budget Budget, fn VisitFunc) error
}

// CountEmbeddings runs eng to completion and returns the number of
// embeddings. If the budget runs out it returns the count so far and
// ErrBudget.
func CountEmbeddings(eng Engine, budget Budget) (int64, error) {
	var n int64
	err := eng.Enumerate(budget, func([]graph.NodeID) bool {
		n++
		return true
	})
	return n, err
}

// PivotBindings answers a PSI query the way subgraph-isomorphism-based
// applications do: enumerate every embedding and project the distinct
// data nodes bound to the pivot. It also reports the number of
// embeddings enumerated (the "intermediate results" of Table 1).
func PivotBindings(eng Engine, q graph.Query, budget Budget) (bindings []graph.NodeID, embeddings int64, err error) {
	seen := make(map[graph.NodeID]struct{})
	err = eng.Enumerate(budget, func(m []graph.NodeID) bool {
		embeddings++
		u := m[q.Pivot]
		if _, ok := seen[u]; !ok {
			seen[u] = struct{}{}
			bindings = append(bindings, u)
		}
		return true
	})
	return bindings, embeddings, err
}

// enumState is the shared backtracking core. Engines differ only in the
// visit order and per-query-node candidate restriction they compute.
type enumState struct {
	g       *graph.Graph
	q       *graph.Graph
	order   []graph.NodeID // query visit order, connected prefixes
	steps   []plan.Step    // order's anchors and adjacency checks
	allowed []nodeSet      // optional candidate restriction per query node

	mapping []graph.NodeID // query-node-indexed current bindings
	bound   []graph.NodeID // order-position-indexed bindings
	fn      VisitFunc
	stopped bool

	deadline time.Time
	maxEmb   int64
	emb      int64
	ticks    int64
	err      error
}

// nodeSet is a candidate restriction; nil means unrestricted.
type nodeSet map[graph.NodeID]struct{}

func (s nodeSet) contains(u graph.NodeID) bool {
	if s == nil {
		return true
	}
	_, ok := s[u]
	return ok
}

func (s *enumState) tick() bool {
	s.ticks++
	if !s.deadline.IsZero() && s.ticks&1023 == 0 && time.Now().After(s.deadline) {
		s.err = ErrBudget
		return false
	}
	return true
}

// run enumerates all extensions given the first binding already placed.
func (s *enumState) run(depth int) bool {
	if s.stopped || s.err != nil {
		return false
	}
	if depth == len(s.order) {
		s.emb++
		if !s.fn(s.mapping) {
			s.stopped = true
			return false
		}
		if s.maxEmb > 0 && s.emb >= s.maxEmb {
			s.err = ErrBudget
			return false
		}
		return true
	}
	if !s.tick() {
		return false
	}
	qn := s.order[depth]
	step := &s.steps[depth]
	anchorNode := s.bound[step.Anchor]
	label := s.q.Label(qn)
	qDeg := s.q.Degree(qn)
	lo, hi := s.g.NeighborRangeWithLabel(anchorNode, label)
	nbrs := s.g.Neighbors(anchorNode)
	for i := lo; i < hi; i++ {
		cand := nbrs[i]
		if step.AnchorEdgeLabel != graph.NoLabel && s.g.EdgeLabelAt(anchorNode, i) != step.AnchorEdgeLabel {
			continue
		}
		if !s.allowed[qn].contains(cand) {
			continue
		}
		if s.g.Degree(cand) < qDeg {
			continue
		}
		if s.isBound(depth, cand) {
			continue
		}
		if !s.checkEdges(depth, cand) {
			continue
		}
		s.bound[depth] = cand
		s.mapping[qn] = cand
		ok := s.run(depth + 1)
		s.mapping[qn] = -1
		if !ok && (s.stopped || s.err != nil) {
			return false
		}
	}
	return true
}

func (s *enumState) isBound(depth int, u graph.NodeID) bool {
	for i := 0; i < depth; i++ {
		if s.bound[i] == u {
			return true
		}
	}
	return false
}

func (s *enumState) checkEdges(depth int, cand graph.NodeID) bool {
	for _, chk := range s.steps[depth].Checks {
		other := s.bound[chk.Pos]
		if chk.EdgeLabel == graph.NoLabel {
			if !s.g.HasEdge(cand, other) {
				return false
			}
		} else {
			l, ok := s.g.EdgeLabel(cand, other)
			if !ok || l != chk.EdgeLabel {
				return false
			}
		}
	}
	return true
}

// enumerate runs the core over every start candidate the engine supplies.
// order is compiled as a plan pivoted at order[0], whose candidates the
// engine supplies.
func enumerate(g, q *graph.Graph, order []graph.NodeID, allowed []nodeSet,
	startCands []graph.NodeID, budget Budget, fn VisitFunc) error {
	if q.NumNodes() == 0 {
		return nil
	}
	c, err := plan.Compile(graph.Query{G: q, Pivot: order[0]}, order)
	if err != nil {
		return err
	}
	s := &enumState{
		g: g, q: q, order: order, steps: c.Steps,
		allowed:  allowed,
		mapping:  make([]graph.NodeID, q.NumNodes()),
		bound:    make([]graph.NodeID, len(order)),
		fn:       fn,
		deadline: budget.Deadline,
		maxEmb:   budget.MaxEmbeddings,
	}
	if s.allowed == nil {
		s.allowed = make([]nodeSet, q.NumNodes())
	}
	for i := range s.mapping {
		s.mapping[i] = -1
	}
	start := order[0]
	qDeg := q.Degree(start)
	for _, v := range startCands {
		if g.Degree(v) < qDeg || !s.allowed[start].contains(v) {
			continue
		}
		if !s.tick() {
			break
		}
		s.bound[0] = v
		s.mapping[start] = v
		s.run(1)
		s.mapping[start] = -1
		if s.stopped || s.err != nil {
			break
		}
	}
	return s.err
}

// orderBySelectivity returns a connected visit order over q starting at
// start, greedily preferring nodes with the smallest estimated candidate
// count (estimate[u]), breaking ties by higher query degree.
func orderBySelectivity(q *graph.Graph, start graph.NodeID, estimate func(graph.NodeID) int64) []graph.NodeID {
	n := q.NumNodes()
	order := make([]graph.NodeID, 0, n)
	in := make([]bool, n)
	order = append(order, start)
	in[start] = true
	for len(order) < n {
		best := graph.NodeID(-1)
		var bestEst int64
		var bestDeg int32
		for v := graph.NodeID(0); int(v) < n; v++ {
			if in[v] {
				continue
			}
			connected := false
			for _, w := range q.Neighbors(v) {
				if in[w] {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			est := estimate(v)
			deg := q.Degree(v)
			if best < 0 || est < bestEst || (est == bestEst && deg > bestDeg) {
				best, bestEst, bestDeg = v, est, deg
			}
		}
		if best < 0 {
			break // disconnected query: callers validate beforehand
		}
		order = append(order, best)
		in[best] = true
	}
	return order
}
