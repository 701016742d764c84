package match

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
)

// TurboIso is a TurboIso-style engine (Han et al., SIGMOD 2013): it picks
// a start query vertex by selectivity, and for each data candidate of
// that vertex explores a *candidate region* — the data nodes that can
// participate in an embedding rooted there — along a BFS spanning tree of
// the query. Matching then runs region by region with candidates
// restricted to the region and a per-region order that visits
// small-candidate-set query vertices first (TurboIso's adaptive
// ordering). The published NEC-tree vertex merging is not reproduced;
// every query vertex is its own class.
type TurboIso struct {
	g *graph.Graph
	q *graph.Graph

	start    graph.NodeID
	tree     [][]graph.NodeID // children per query node in the BFS spanning tree
	bfsOrder []graph.NodeID
}

// NewTurboIso returns a TurboIso-style engine for connected query q.
func NewTurboIso(g *graph.Graph, q *graph.Graph) (*TurboIso, error) {
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("match: empty query")
	}
	if !graph.IsConnected(q) {
		return nil, fmt.Errorf("match: disconnected query")
	}
	t := &TurboIso{g: g, q: q}
	t.start = t.chooseStart()
	t.buildSpanningTree()
	return t, nil
}

// Name implements Engine.
func (t *TurboIso) Name() string { return "turboiso" }

func (t *TurboIso) chooseStart() graph.NodeID {
	best := graph.NodeID(0)
	bestScore := float64(1 << 62)
	for v := graph.NodeID(0); int(v) < t.q.NumNodes(); v++ {
		deg := t.q.Degree(v)
		if deg == 0 {
			deg = 1
		}
		score := float64(t.g.LabelFrequency(t.q.Label(v))) / float64(deg)
		if score < bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

func (t *TurboIso) buildSpanningTree() {
	n := t.q.NumNodes()
	t.tree = make([][]graph.NodeID, n)
	t.bfsOrder = make([]graph.NodeID, 0, n)
	seen := make([]bool, n)
	seen[t.start] = true
	queue := []graph.NodeID{t.start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		t.bfsOrder = append(t.bfsOrder, u)
		for _, w := range t.q.Neighbors(u) {
			if !seen[w] {
				seen[w] = true
				t.tree[u] = append(t.tree[u], w)
				queue = append(queue, w)
			}
		}
	}
}

// exploreRegion computes the candidate region rooted at data node v: for
// every query node, the set of data nodes reachable along the spanning
// tree that pass label and degree filters. It returns nil if any query
// node ends up with no candidates (region pruned).
func (t *TurboIso) exploreRegion(v graph.NodeID) []nodeSet {
	cr := make([]nodeSet, t.q.NumNodes())
	for i := range cr {
		cr[i] = make(nodeSet)
	}
	cr[t.start][v] = struct{}{}
	for _, u := range t.bfsOrder {
		if len(cr[u]) == 0 {
			return nil
		}
		for _, child := range t.tree[u] {
			label := t.q.Label(child)
			deg := t.q.Degree(child)
			for parent := range cr[u] {
				for _, cand := range t.g.NeighborsWithLabel(parent, label) {
					if t.g.Degree(cand) >= deg {
						cr[child][cand] = struct{}{}
					}
				}
			}
		}
	}
	for _, s := range cr {
		if len(s) == 0 {
			return nil
		}
	}
	return cr
}

// nodeSet is one query node's candidate region.
type nodeSet map[graph.NodeID]struct{}

// inRegion is region cr as an enumerate restriction.
func inRegion(cr []nodeSet) func(v, u graph.NodeID) bool {
	return func(v, u graph.NodeID) bool {
		_, ok := cr[v][u]
		return ok
	}
}

// regionOrder returns the matching order for one region: start first,
// then connected extension by smallest candidate-region size.
func (t *TurboIso) regionOrder(cr []nodeSet) []graph.NodeID {
	return orderBySelectivity(t.q, t.start, func(v graph.NodeID) int64 {
		return int64(len(cr[v]))
	})
}

// Enumerate implements Engine.
func (t *TurboIso) Enumerate(budget Budget, fn VisitFunc) error {
	startCands := t.g.NodesWithLabel(t.q.Label(t.start))
	stopped := false
	wrapped := func(m []graph.NodeID) bool {
		if !fn(m) {
			stopped = true
			return false
		}
		return true
	}
	remaining := budget.MaxEmbeddings
	for _, v := range startCands {
		if t.g.Degree(v) < t.q.Degree(t.start) {
			continue
		}
		if !budget.Deadline.IsZero() && time.Now().After(budget.Deadline) {
			return ErrBudget
		}
		cr := t.exploreRegion(v)
		if cr == nil {
			continue
		}
		order := t.regionOrder(cr)
		regionBudget := Budget{Deadline: budget.Deadline, MaxEmbeddings: remaining}
		var count int64
		counting := func(m []graph.NodeID) bool {
			count++
			return wrapped(m)
		}
		err := enumerate(t.g, t.q, order, inRegion(cr), []graph.NodeID{v}, regionBudget, counting)
		if budget.MaxEmbeddings > 0 {
			remaining -= count
			if remaining <= 0 {
				return ErrBudget
			}
		}
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// sortedSetSizes is a test/debug helper exposing region candidate sizes.
func (t *TurboIso) sortedSetSizes(v graph.NodeID) []int {
	cr := t.exploreRegion(v)
	if cr == nil {
		return nil
	}
	sizes := make([]int, 0, len(cr))
	for _, s := range cr {
		sizes = append(sizes, len(s))
	}
	sort.Ints(sizes)
	return sizes
}
