package ml

import "math"

// flatForest is a fitted forest laid out for prediction. All trees share
// one node array in level order: the roots first (node k is tree k's
// root), then every depth-1 node, and so on, with the two children of a
// split adjacent. A step is then i = child + !(x[feature] <= threshold),
// repeated height times: a leaf is its own child and compares x[0]
// with +Inf, so it stays put whatever x[0] holds short of NaN. With no
// data-dependent branch, several trees walk in lockstep and their loads
// overlap.
type flatForest struct {
	nodes  []flatNode
	trees  int
	width  int // 1 + the highest feature a node reads: x must be this long
	height int // the deepest leaf's depth
}

// flatNode is 16 bytes, four to a cache line.
type flatNode struct {
	threshold float64 // a split goes to child when x[feature] <= threshold, else child+1
	child     uint32
	feature   uint16
	class     uint16 // a leaf's vote
}

// next is one step of the walk from n. It makes the tree walk's
// comparison, x[feature] <= threshold, so NaN goes right.
func (n *flatNode) next(x []float64) uint32 {
	right := uint32(0)
	if !(x[n.feature] <= n.threshold) {
		right = 1
	}
	return n.child + right
}

// flatten lays trees out as a flatForest, or returns nil when a feature
// or class id does not fit a flatNode (the forest then walks its trees).
func flatten(trees []*tree, numClasses int) *flatForest {
	if numClasses > math.MaxUint16+1 {
		return nil
	}
	total := 0
	for _, t := range trees {
		total += len(t.nodes)
	}
	type ref struct{ tree, node int32 }
	queue := make([]ref, len(trees), total)
	for k := range trees {
		queue[k] = ref{int32(k), 0}
	}
	fl := &flatForest{nodes: make([]flatNode, total), trees: len(trees), width: 1}
	depth := make([]int, total)
	for p := 0; p < len(queue); p++ {
		n := &trees[queue[p].tree].nodes[queue[p].node]
		if n.feature < 0 {
			fl.nodes[p] = flatNode{threshold: math.Inf(1), child: uint32(p), class: uint16(n.class)}
			fl.height = max(fl.height, depth[p])
			continue
		}
		if n.feature > math.MaxUint16 {
			return nil
		}
		c := len(queue)
		fl.nodes[p] = flatNode{threshold: n.threshold, child: uint32(c), feature: uint16(n.feature)}
		fl.width = max(fl.width, n.feature+1)
		depth[c], depth[c+1] = depth[p]+1, depth[p]+1
		queue = append(queue, ref{queue[p].tree, n.left}, ref{queue[p].tree, n.right})
	}
	return fl
}

// vote adds each tree's vote for x, which must hold at least width
// values and no NaN in x[0]. Four trees walk at a time.
func (fl *flatForest) vote(x []float64, votes []int) {
	nodes := fl.nodes
	k := 0
	for ; k+4 <= fl.trees; k += 4 {
		a, b, c, d := uint32(k), uint32(k+1), uint32(k+2), uint32(k+3)
		for range fl.height {
			a = nodes[a].next(x)
			b = nodes[b].next(x)
			c = nodes[c].next(x)
			d = nodes[d].next(x)
		}
		votes[nodes[a].class]++
		votes[nodes[b].class]++
		votes[nodes[c].class]++
		votes[nodes[d].class]++
	}
	for ; k < fl.trees; k++ {
		a := uint32(k)
		for range fl.height {
			a = nodes[a].next(x)
		}
		votes[nodes[a].class]++
	}
}
