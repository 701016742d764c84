package graph

// FromCSR assembles a Graph directly from raw CSR arrays without
// validating them, rebuilding only the derived state (per-label counts
// and index, max degree). labels holds one node label per node; offsets
// has len(labels)+1 entries; adj holds 2x the undirected edge count
// (each edge stored in both endpoint runs, runs sorted by
// (neighbor label, neighbor id)); edgeLabels is either nil or aligned
// with adj; numLabels is the node-label alphabet size (at least
// 1 + max(labels)).
//
// The caller is trusted: nothing is checked beyond what the derived-
// state rebuild touches. Callers ingesting untrusted data must call
// (*Graph).Validate or enable package invariant's deep checking. The
// input slices are retained, not copied.
func FromCSR(labels []Label, offsets []int64, adj []NodeID, edgeLabels []Label, numLabels int) *Graph {
	g := &Graph{
		labels:     labels,
		offsets:    offsets,
		adj:        adj,
		edgeLabels: edgeLabels,
		numEdges:   int64(len(adj) / 2),
	}
	g.labelCount = make([]int32, numLabels)
	for _, l := range labels {
		if l >= 0 && int(l) < numLabels {
			g.labelCount[l]++
		}
	}
	g.labelIndex = make([][]NodeID, numLabels)
	for l := range g.labelIndex {
		if c := g.labelCount[l]; c > 0 {
			g.labelIndex[l] = make([]NodeID, 0, c)
		}
	}
	for u, l := range labels {
		if l >= 0 && int(l) < numLabels {
			g.labelIndex[l] = append(g.labelIndex[l], NodeID(u))
		}
	}
	for u := 0; u+1 < len(offsets); u++ {
		if d := int32(offsets[u+1] - offsets[u]); d > g.maxDegree {
			g.maxDegree = d
		}
	}
	return g
}

// Equal reports whether a and b are structurally identical: same node
// count, same node labels, same sorted adjacency, and same edge labels.
// Label-name tables are not compared (binary round-trips drop them).
func Equal(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	if a.HasEdgeLabels() != b.HasEdgeLabels() {
		return false
	}
	for u := NodeID(0); int(u) < a.NumNodes(); u++ {
		if a.Label(u) != b.Label(u) {
			return false
		}
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
			if a.EdgeLabelAt(u, i) != b.EdgeLabelAt(u, i) {
				return false
			}
		}
	}
	return true
}
