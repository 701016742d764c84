package graph

import (
	"fmt"
)

// Query is a pivoted query graph: a small labeled graph S together with a
// pivot node. A PSI evaluation returns the distinct data-graph nodes that
// match Pivot in at least one embedding of S.
type Query struct {
	G     *Graph
	Pivot NodeID
}

// NewQuery returns a pivoted query over g, validating the pivot.
func NewQuery(g *Graph, pivot NodeID) (Query, error) {
	if pivot < 0 || int(pivot) >= g.NumNodes() {
		return Query{}, fmt.Errorf("graph: pivot %d out of range [0,%d)", pivot, g.NumNodes())
	}
	return Query{G: g, Pivot: pivot}, nil
}

// Size returns the number of query nodes.
func (q Query) Size() int { return q.G.NumNodes() }

// Validate checks that the query graph is connected (a disconnected query
// cannot be evaluated by a connected search order) and the pivot in range.
func (q Query) Validate() error {
	if q.Pivot < 0 || int(q.Pivot) >= q.G.NumNodes() {
		return fmt.Errorf("graph: pivot %d out of range [0,%d)", q.Pivot, q.G.NumNodes())
	}
	if !IsConnected(q.G) {
		return fmt.Errorf("graph: query graph is disconnected")
	}
	return q.G.Validate()
}

// IsConnected reports whether g is connected (true for the empty graph).
func IsConnected(g *Graph) bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(u) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// ConnectedComponent returns the nodes reachable from start, in discovery
// order.
func ConnectedComponent(g *Graph, start NodeID) []NodeID {
	seen := make([]bool, g.NumNodes())
	seen[start] = true
	out := []NodeID{start}
	for i := 0; i < len(out); i++ {
		for _, w := range g.Neighbors(out[i]) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// InducedSubgraph returns the subgraph of g induced by nodes, along with
// the mapping from new ids (positions in nodes) back to the original ids.
// Duplicate entries in nodes are an error.
func InducedSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID, error) {
	remap := make(map[NodeID]NodeID, len(nodes))
	for i, u := range nodes {
		if u < 0 || int(u) >= g.NumNodes() {
			return nil, nil, fmt.Errorf("graph: induced node %d out of range", u)
		}
		if _, dup := remap[u]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in induced set", u)
		}
		remap[u] = NodeID(i)
	}
	b := NewBuilder(len(nodes), len(nodes)*2)
	b.SetLabelTables(g.nodeLabels, g.edgeTable)
	for _, u := range nodes {
		b.AddNode(g.Label(u))
	}
	for _, u := range nodes {
		nu := remap[u]
		for i, w := range g.Neighbors(u) {
			nw, ok := remap[w]
			if !ok || nu >= nw {
				continue // keep one direction; skip nodes outside the set
			}
			l := g.EdgeLabelAt(u, i)
			if err := b.AddLabeledEdge(nu, nw, l); err != nil {
				return nil, nil, err
			}
		}
	}
	orig := make([]NodeID, len(nodes))
	copy(orig, nodes)
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, orig, nil
}
