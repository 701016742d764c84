// Package graph provides the labeled-graph substrate used throughout the
// SmartPSI reproduction: an immutable CSR (compressed sparse row)
// representation of an undirected node- and optionally edge-labeled graph,
// a mutable Builder, text codecs, and the pivoted Query type.
//
// Node identifiers are dense int32 values in [0, NumNodes). Labels are
// dense integer identifiers in [0, NumLabels); a LabelTable maps them to
// and from their external string names.
package graph

import "fmt"

// NodeID identifies a node within a Graph.
type NodeID = int32

// Label identifies a node or edge label within a Graph's label alphabet.
type Label = int32

// NoLabel marks the absence of an (edge) label.
const NoLabel Label = -1

// Graph is an immutable undirected labeled graph in CSR form.
//
// Neighbor lists are sorted by (neighbor label, neighbor id), which lets
// HasEdge and NeighborsWithLabel run in O(log degree) while label-grouped
// scans touch a contiguous run. Build one with a Builder.
type Graph struct {
	offsets    []int64 // len NumNodes+1; neighbor run of u is adj[offsets[u]:offsets[u+1]]
	adj        []NodeID
	edgeLabels []Label // aligned with adj; nil when the graph has no edge labels
	labels     []Label // node labels, len NumNodes
	nodeLabels *LabelTable
	edgeTable  *LabelTable

	labelCount []int32    // number of nodes per label
	labelIndex [][]NodeID // nodes grouped by label (lazy-built by Builder)
	numEdges   int64      // undirected edge count (each edge stored twice in adj)
	maxDegree  int32
}

// NumNodes returns the number of nodes in g.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns the number of undirected edges in g.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// NumLabels returns the size of the node-label alphabet.
func (g *Graph) NumLabels() int { return len(g.labelCount) }

// HasEdgeLabels reports whether g carries edge labels.
func (g *Graph) HasEdgeLabels() bool { return g.edgeLabels != nil }

// Label returns the label of node u.
func (g *Graph) Label(u NodeID) Label { return g.labels[u] }

// Labels returns the node-label slice indexed by NodeID. The caller must
// not modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int32 {
	return int32(g.offsets[u+1] - g.offsets[u])
}

// MaxDegree returns the largest node degree in g.
func (g *Graph) MaxDegree() int32 { return g.maxDegree }

// Neighbors returns the neighbor list of u, sorted by (label, id). The
// caller must not modify it.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// EdgeLabelAt returns the label of the i-th incident edge of u (aligned
// with Neighbors(u)), or NoLabel when the graph has no edge labels.
func (g *Graph) EdgeLabelAt(u NodeID, i int) Label {
	if g.edgeLabels == nil {
		return NoLabel
	}
	return g.edgeLabels[g.offsets[u]+int64(i)]
}

// neighborSearch returns the index within u's neighbor run of the first
// neighbor >= (label, id) in the run ordering.
func (g *Graph) neighborSearch(u NodeID, label Label, id NodeID) int {
	return g.searchRun(g.adj[g.offsets[u]:g.offsets[u+1]], 0, label, id)
}

// searchRun returns the index of the first entry of run at or after lo
// that is >= (label, id) in the run ordering: a plain binary search, so a
// lookup allocates nothing and calls nothing.
func (g *Graph) searchRun(run []NodeID, lo int, label Label, id NodeID) int {
	hi := len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		w := run[mid]
		if lw := g.labels[w]; lw < label || (lw == label && w < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	// Search from the lower-degree endpoint.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	i := g.neighborSearch(u, g.labels[v], v)
	run := g.adj[g.offsets[u]:g.offsets[u+1]]
	return i < len(run) && run[i] == v
}

// EdgeLabel returns the label of edge (u, v) and whether the edge exists.
// It returns NoLabel for existing edges of a graph without edge labels.
func (g *Graph) EdgeLabel(u, v NodeID) (Label, bool) {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	i := g.neighborSearch(u, g.labels[v], v)
	run := g.adj[g.offsets[u]:g.offsets[u+1]]
	if i >= len(run) || run[i] != v {
		return NoLabel, false
	}
	if g.edgeLabels == nil {
		return NoLabel, true
	}
	return g.edgeLabels[g.offsets[u]+int64(i)], true
}

// NeighborsWithLabel returns the contiguous run of u's neighbors whose
// label is l. The caller must not modify it.
func (g *Graph) NeighborsWithLabel(u NodeID, l Label) []NodeID {
	lo, hi := g.NeighborRangeWithLabel(u, l)
	return g.Neighbors(u)[lo:hi]
}

// CountNeighborsWithLabel returns how many neighbors of u carry label l.
func (g *Graph) CountNeighborsWithLabel(u NodeID, l Label) int {
	return len(g.NeighborsWithLabel(u, l))
}

// NeighborRangeWithLabel returns the index range [lo, hi) within
// Neighbors(u) of the neighbors carrying label l, for callers that also
// need EdgeLabelAt for the same positions.
func (g *Graph) NeighborRangeWithLabel(u NodeID, l Label) (lo, hi int) {
	run := g.Neighbors(u)
	lo = g.searchRun(run, 0, l, 0)
	return lo, g.searchRun(run, lo, l+1, 0)
}

// NodesWithLabel returns all nodes carrying label l, in ascending id
// order. The caller must not modify the returned slice.
func (g *Graph) NodesWithLabel(l Label) []NodeID {
	if l < 0 || int(l) >= len(g.labelIndex) {
		return nil
	}
	return g.labelIndex[l]
}

// LabelFrequency returns the number of nodes carrying label l.
func (g *Graph) LabelFrequency(l Label) int32 {
	if l < 0 || int(l) >= len(g.labelCount) {
		return 0
	}
	return g.labelCount[l]
}

// NodeLabelTable returns the table mapping node-label ids to names.
// It may be nil for programmatically built graphs.
func (g *Graph) NodeLabelTable() *LabelTable { return g.nodeLabels }

// EdgeLabelTable returns the table mapping edge-label ids to names, or nil.
func (g *Graph) EdgeLabelTable() *LabelTable { return g.edgeTable }

// Validate performs internal consistency checks and returns the first
// violation found, or nil. It is intended for tests and codec round-trips.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets[%d] = %d, want %d", n, g.offsets[n], len(g.adj))
	}
	if g.edgeLabels != nil && len(g.edgeLabels) != len(g.adj) {
		return fmt.Errorf("graph: edgeLabels length %d, want %d", len(g.edgeLabels), len(g.adj))
	}
	// First pass: every adjacency entry must be in range (and not a
	// self-loop) before any check that indexes through another node's
	// run, or a corrupt entry would panic instead of erroring.
	var halfEdges int64
	for u := NodeID(0); int(u) < n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
		if g.offsets[u+1] > int64(len(g.adj)) {
			// Monotonicity alone does not bound intermediate offsets:
			// only offsets[n] is pinned to len(adj) above, and a corrupt
			// run can overshoot and come back down.
			return fmt.Errorf("graph: offsets[%d] = %d exceeds adjacency length %d", u+1, g.offsets[u+1], len(g.adj))
		}
		run := g.Neighbors(u)
		halfEdges += int64(len(run))
		for _, w := range run {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, w)
			}
			if w == u {
				return fmt.Errorf("graph: node %d has a self loop", u)
			}
		}
	}
	// Second pass: sorting, which the reverse lookups below rely on.
	for u := NodeID(0); int(u) < n; u++ {
		run := g.Neighbors(u)
		for i := 1; i < len(run); i++ {
			p, w := run[i-1], run[i]
			if g.labels[p] > g.labels[w] || (g.labels[p] == g.labels[w] && p >= w) {
				return fmt.Errorf("graph: neighbors of %d not sorted by (label,id) at index %d", u, i)
			}
		}
	}
	// Third pass: symmetry. Each half-edge (u,w) must appear in w's own
	// run, with the same edge label.
	for u := NodeID(0); int(u) < n; u++ {
		for i, w := range g.Neighbors(u) {
			j := g.neighborSearch(w, g.labels[u], u)
			rev := g.Neighbors(w)
			if j >= len(rev) || rev[j] != u {
				return fmt.Errorf("graph: edge (%d,%d) missing its reverse", u, w)
			}
			if l, r := g.EdgeLabelAt(u, i), g.EdgeLabelAt(w, j); l != r {
				return fmt.Errorf("graph: edge (%d,%d) has edge label %d, its reverse %d", u, w, l, r)
			}
		}
	}
	if halfEdges != 2*g.numEdges {
		return fmt.Errorf("graph: stored %d half-edges, want %d", halfEdges, 2*g.numEdges)
	}
	for u, l := range g.labels {
		if l < 0 || int(l) >= len(g.labelCount) {
			return fmt.Errorf("graph: node %d has out-of-range label %d", u, l)
		}
	}
	return nil
}

// LabelTable is an order-preserving bidirectional mapping between label
// names and dense Label ids.
type LabelTable struct {
	names []string
	ids   map[string]Label
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable {
	return &LabelTable{ids: make(map[string]Label)}
}

// Intern returns the id for name, assigning the next free id on first use.
func (t *LabelTable) Intern(name string) Label {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := Label(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Lookup returns the id for name and whether it is present.
func (t *LabelTable) Lookup(name string) (Label, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the name of label id, or a numeric placeholder when id is
// outside the table (as happens for programmatically built graphs).
func (t *LabelTable) Name(id Label) string {
	if t == nil || id < 0 || int(id) >= len(t.names) {
		return fmt.Sprintf("L%d", id)
	}
	return t.names[id]
}

// Len returns the number of interned labels.
func (t *LabelTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.names)
}
