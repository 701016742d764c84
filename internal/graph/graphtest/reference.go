package graphtest

import "repro/internal/graph"

// ReferencePSI is a trivially correct PSI oracle for tiny instances:
// naive backtracking over every label-preserving injective extension of
// pivot ↦ u, with no pruning and no ordering. It reports whether data
// node u binds q's pivot in g. The query must be connected.
func ReferencePSI(g *graph.Graph, q graph.Query, u graph.NodeID) bool {
	if g.Label(u) != q.G.Label(q.Pivot) {
		return false
	}
	n := q.G.NumNodes()
	mapping := make([]graph.NodeID, n)
	for i := range mapping {
		mapping[i] = -1
	}
	mapping[q.Pivot] = u
	var rec func() bool
	rec = func() bool {
		// The next query node is an unmapped one adjacent to a mapped one.
		next := graph.NodeID(-1)
		for v := graph.NodeID(0); int(v) < n && next < 0; v++ {
			if mapping[v] >= 0 {
				continue
			}
			for _, w := range q.G.Neighbors(v) {
				if mapping[w] >= 0 {
					next = v
					break
				}
			}
		}
		if next < 0 {
			// All mapped (the query is connected): verify every edge.
			for v := graph.NodeID(0); int(v) < n; v++ {
				for i, w := range q.G.Neighbors(v) {
					el, ok := g.EdgeLabel(mapping[v], mapping[w])
					if !ok || q.G.EdgeLabelAt(v, i) != graph.NoLabel && el != q.G.EdgeLabelAt(v, i) {
						return false
					}
				}
			}
			return true
		}
		for c := graph.NodeID(0); int(c) < g.NumNodes(); c++ {
			if g.Label(c) != q.G.Label(next) || used(mapping, c) {
				continue
			}
			mapping[next] = c
			found := rec()
			mapping[next] = -1
			if found {
				return true
			}
		}
		return false
	}
	return rec()
}

func used(mapping []graph.NodeID, c graph.NodeID) bool {
	for _, m := range mapping {
		if m == c {
			return true
		}
	}
	return false
}
