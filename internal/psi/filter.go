package psi

import (
	"math/bits"

	"repro/internal/graph"
)

// The candidate filter's refinement runs at most maxFilterRounds rounds
// and stops after the first that removes fewer than one in
// filterStopShare of the sets' members: later rounds remove little.
const (
	maxFilterRounds = 3
	filterStopShare = 100
)

// Filter is a candidate filter: for each query node v, a set C(v) of
// data nodes holding every node that v maps to in some embedding of the
// query. It is the one arc-consistency routine: SmartPSI's kept
// artifacts (Evaluator.Filtered) and the CFL-Match and GraphQL
// baselines of internal/match build their candidate sets with it, and
// differ only in the seed they pass. The zero Filter has no sets and
// admits every node.
type Filter struct {
	// sets holds C(v) as a bitset over data node ids at
	// sets[v*words : (v+1)*words].
	sets  []uint64
	words int
}

// NewFilter builds the candidate filter of query qg over data graph g.
// C(v) starts as the nodes with v's label that seed accepts; seed must
// accept every node v maps to in some embedding. A refinement round then
// drops u from C(v) when some query neighbour w of v has no neighbour of
// u in C(w) with w's label, joined by an edge with the query edge's label
// when it carries one. Every removal is of a node no embedding uses, so
// the sets stay sound however many rounds run.
func NewFilter(g, qg *graph.Graph, seed func(v, u graph.NodeID) bool) *Filter {
	f := &Filter{words: (g.NumNodes() + 63) / 64}
	f.sets = make([]uint64, qg.NumNodes()*f.words)
	members := 0
	for v := graph.NodeID(0); int(v) < qg.NumNodes(); v++ {
		row := f.row(v)
		for _, u := range g.NodesWithLabel(qg.Label(v)) {
			if seed(v, u) {
				row[u>>6] |= 1 << (u & 63)
				members++
			}
		}
	}
	for round := 0; round < maxFilterRounds; round++ {
		removed := 0
		for v := graph.NodeID(0); int(v) < qg.NumNodes(); v++ {
			row := f.row(v)
			for i, word := range row {
				for ; word != 0; word &= word - 1 {
					u := graph.NodeID(i<<6 + bits.TrailingZeros64(word))
					if !f.supported(g, qg, u, v) {
						row[i] &^= 1 << (u & 63)
						removed++
					}
				}
			}
		}
		if removed*filterStopShare < members {
			break
		}
		members -= removed
	}
	return f
}

// row returns C(v)'s bitset.
func (f *Filter) row(v graph.NodeID) []uint64 {
	return f.sets[int(v)*f.words : int(v+1)*f.words]
}

// supported reports whether data node u has, for every query neighbour w
// of v, a neighbour in C(w) with w's label, over an edge with the query
// edge's label when that carries one.
func (f *Filter) supported(g, qg *graph.Graph, u, v graph.NodeID) bool {
	nbrs := g.Neighbors(u)
	for i, w := range qg.Neighbors(v) {
		el := qg.EdgeLabelAt(v, i)
		lo, hi := g.NeighborRangeWithLabel(u, qg.Label(w))
		j := lo
		for ; j < hi; j++ {
			if (el == graph.NoLabel || g.EdgeLabelAt(u, j) == el) && f.Has(w, nbrs[j]) {
				break
			}
		}
		if j == hi {
			return false
		}
	}
	return true
}

// Has reports whether data node u is in C(v); every node is in the zero
// Filter's.
func (f *Filter) Has(v, u graph.NodeID) bool {
	return f.sets == nil || f.sets[int(v)*f.words+int(u>>6)]&(1<<(u&63)) != 0
}

// Count returns |C(v)|.
func (f *Filter) Count(v graph.NodeID) int {
	n := 0
	for _, word := range f.row(v) {
		n += bits.OnesCount64(word)
	}
	return n
}

// Members returns C(v)'s nodes in ascending order.
func (f *Filter) Members(v graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, f.Count(v))
	for i, word := range f.row(v) {
		for ; word != 0; word &= word - 1 {
			out = append(out, graph.NodeID(i<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// Bytes is the filter's resident size: one bit per data node for each
// query node, in whole words; 0 for the zero Filter.
func (f *Filter) Bytes() int64 { return int64(len(f.sets)) * 8 }
