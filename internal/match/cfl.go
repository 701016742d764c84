package match

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/psi"
)

// CFL is a CFL-Match-style engine (Bi et al., SIGMOD 2016): the query is
// decomposed into core (its 2-core), forest (trees hanging off the core)
// and leaves (degree-1 vertices), candidates are computed up front and
// refined by edge-consistency rounds (psi.NewFilter, a compact-path-index
// approximation), and matching visits core vertices before forest
// vertices before leaves — postponing the Cartesian-product-prone parts.
// Leaf-match compression is not reproduced: embeddings are enumerated
// one by one, which the experiments require anyway.
type CFL struct {
	g *graph.Graph
	q *graph.Graph

	core   []bool // in the query's 2-core
	leaf   []bool // degree-1 query vertices
	filter *psi.Filter
}

// NewCFL returns a CFL-Match-style engine for connected query q.
func NewCFL(g *graph.Graph, q *graph.Graph) (*CFL, error) {
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("match: empty query")
	}
	if !graph.IsConnected(q) {
		return nil, fmt.Errorf("match: disconnected query")
	}
	c := &CFL{g: g, q: q}
	c.decompose()
	c.filter = psi.NewFilter(g, q, CFLSeed(g, q))
	return c, nil
}

// CFLSeed is CFL-Match's candidate seed for psi.NewFilter: a node with
// v's label (NewFilter's own test) and at least v's degree.
func CFLSeed(g, q *graph.Graph) func(v, u graph.NodeID) bool {
	return func(v, u graph.NodeID) bool { return g.Degree(u) >= q.Degree(v) }
}

// Name implements Engine.
func (c *CFL) Name() string { return "cfl" }

// decompose computes the 2-core and the leaf set of the query.
func (c *CFL) decompose() {
	n := c.q.NumNodes()
	deg := make([]int32, n)
	c.core = make([]bool, n)
	c.leaf = make([]bool, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		deg[v] = c.q.Degree(v)
		if deg[v] <= 1 {
			c.leaf[v] = true
		}
	}
	// Iteratively peel degree-<2 vertices; what survives is the 2-core.
	peel := make([]graph.NodeID, 0, n)
	peeled := make([]bool, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		if deg[v] < 2 {
			peel = append(peel, v)
			peeled[v] = true
		}
	}
	for len(peel) > 0 {
		v := peel[len(peel)-1]
		peel = peel[:len(peel)-1]
		for _, w := range c.q.Neighbors(v) {
			if peeled[w] {
				continue
			}
			deg[w]--
			if deg[w] < 2 {
				peeled[w] = true
				peel = append(peel, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		c.core[v] = !peeled[v]
	}
}

// order returns the CFL matching order: the start vertex (smallest
// candidate set among core vertices, or among all vertices for coreless
// queries), extended connectedly with core vertices first, then forest,
// then leaves, each tier by candidate-set size.
func (c *CFL) order() []graph.NodeID {
	n := c.q.NumNodes()
	size := c.CandidateSetSizes()
	tier := func(v graph.NodeID) int {
		switch {
		case c.core[v]:
			return 0
		case !c.leaf[v]:
			return 1
		default:
			return 2
		}
	}
	start := graph.NodeID(-1)
	for v := graph.NodeID(0); int(v) < n; v++ {
		if start < 0 || tier(v) < tier(start) ||
			(tier(v) == tier(start) && size[v] < size[start]) {
			start = v
		}
	}
	// Greedy connected extension with (tier, |C|) priority.
	order := make([]graph.NodeID, 0, n)
	in := make([]bool, n)
	order = append(order, start)
	in[start] = true
	for len(order) < n {
		best := graph.NodeID(-1)
		for v := graph.NodeID(0); int(v) < n; v++ {
			if in[v] {
				continue
			}
			connected := false
			for _, w := range c.q.Neighbors(v) {
				if in[w] {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if best < 0 || tier(v) < tier(best) ||
				(tier(v) == tier(best) && size[v] < size[best]) {
				best = v
			}
		}
		if best < 0 {
			break
		}
		order = append(order, best)
		in[best] = true
	}
	return order
}

// Enumerate implements Engine.
func (c *CFL) Enumerate(budget Budget, fn VisitFunc) error {
	order := c.order()
	return enumerate(c.g, c.q, order, c.filter.Has, c.filter.Members(order[0]), budget, fn)
}

// CandidateSetSizes returns the refined candidate-set sizes, |C(v)| per
// query vertex.
func (c *CFL) CandidateSetSizes() []int {
	sizes := make([]int, c.q.NumNodes())
	for v := range sizes {
		sizes[v] = c.filter.Count(graph.NodeID(v))
	}
	return sizes
}

// InCore exposes the 2-core membership of query vertex v (testing).
func (c *CFL) InCore(v graph.NodeID) bool { return c.core[v] }
