package match

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/psi"
)

// GraphQL is a GraphQL-style engine (He & Singh, SIGMOD 2008), the
// other classic competitor the paper's related work singles out. Its
// distinguishing ideas, reproduced here, are (1) candidate filtering by
// *neighborhood profiles* — the sorted multiset of neighbor labels; a
// data node can host a query node only if its profile contains the
// query node's profile as a sub-multiset — (2) pseudo-isomorphism
// refinement of the candidate sets (psi.NewFilter's rounds), and (3) a
// global left-deep join order chosen by estimated candidate cardinality.
type GraphQL struct {
	g *graph.Graph
	q *graph.Graph

	filter *psi.Filter
}

// NewGraphQL returns a GraphQL-style engine for connected query q.
func NewGraphQL(g *graph.Graph, q *graph.Graph) (*GraphQL, error) {
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("match: empty query")
	}
	if !graph.IsConnected(q) {
		return nil, fmt.Errorf("match: disconnected query")
	}
	return &GraphQL{g: g, q: q, filter: psi.NewFilter(g, q, GraphQLSeed(g, q))}, nil
}

// GraphQLSeed is GraphQL's candidate seed for psi.NewFilter: a node with
// v's label (NewFilter's own test), at least v's degree, and a
// neighbourhood profile containing v's. NewFilter's refinement is
// GraphQL's pseudo-isomorphism test.
func GraphQLSeed(g, q *graph.Graph) func(v, u graph.NodeID) bool {
	qProfiles := make([][]graph.Label, q.NumNodes())
	for v := range qProfiles {
		qProfiles[v] = profile(q, graph.NodeID(v))
	}
	return func(v, u graph.NodeID) bool {
		return g.Degree(u) >= q.Degree(v) && containsProfile(profile(g, u), qProfiles[v])
	}
}

// Name implements Engine.
func (e *GraphQL) Name() string { return "graphql" }

// profile returns the sorted neighbor-label list of node u in g.
func profile(g *graph.Graph, u graph.NodeID) []graph.Label {
	nbrs := g.Neighbors(u)
	p := make([]graph.Label, len(nbrs))
	for i, w := range nbrs {
		p[i] = g.Label(w)
	}
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	return p
}

// containsProfile reports whether sorted label multiset a contains b.
func containsProfile(a, b []graph.Label) bool {
	i := 0
	for _, want := range b {
		for i < len(a) && a[i] < want {
			i++
		}
		if i >= len(a) || a[i] != want {
			return false
		}
		i++
	}
	return true
}

// order returns GraphQL's global join order: the smallest candidate set
// first, extended connectedly by smallest estimated cardinality.
func (e *GraphQL) order() []graph.NodeID {
	size := e.CandidateSetSizes()
	start := graph.NodeID(0)
	for v := graph.NodeID(1); int(v) < len(size); v++ {
		if size[v] < size[start] {
			start = v
		}
	}
	return orderBySelectivity(e.q, start, func(v graph.NodeID) int64 {
		return int64(size[v])
	})
}

// Enumerate implements Engine.
func (e *GraphQL) Enumerate(budget Budget, fn VisitFunc) error {
	order := e.order()
	return enumerate(e.g, e.q, order, e.filter.Has, e.filter.Members(order[0]), budget, fn)
}

// CandidateSetSizes returns the refined candidate-set sizes, |C(v)| per
// query vertex.
func (e *GraphQL) CandidateSetSizes() []int {
	sizes := make([]int, e.q.NumNodes())
	for v := range sizes {
		sizes[v] = e.filter.Count(graph.NodeID(v))
	}
	return sizes
}
