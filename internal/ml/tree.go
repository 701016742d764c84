package ml

import (
	"cmp"
	"math/rand"
	"slices"
)

// treeConfig controls CART decision-tree induction.
type treeConfig struct {
	// maxDepth bounds the tree height (<=0: unbounded).
	maxDepth int
	// minLeaf is the minimum sample count of a leaf (default 1).
	minLeaf int
	// featureFrac is the fraction of features considered per split
	// (<=0 or >=1: all). Random forests use sqrt-fraction subsampling.
	featureFrac float64
	// rng supplies feature subsampling; nil means deterministic
	// all-features splitting.
	rng *rand.Rand
}

// tree is a trained CART decision tree over numeric features, split by
// Gini impurity.
type tree struct {
	nodes      []treeNode
	numClasses int
}

type treeNode struct {
	feature   int     // -1 for leaves
	threshold float64 // go left when x[feature] <= threshold
	left      int32
	right     int32
	class     int // leaf prediction
}

// Name implements Classifier.
func (t *tree) Name() string { return "decision-tree" }

// Predict implements Classifier.
func (t *tree) Predict(x []float64) int {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.class
		}
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// NumNodes returns the number of tree nodes (testing/inspection).
func (t *tree) NumNodes() int { return len(t.nodes) }

// columns is a training set laid out for fitting, feature-major: the
// values, and each feature's rows in ascending value order. A forest
// builds it once and its trees share it read-only.
type columns struct {
	n, nf, numClasses int
	val               []float64 // val[f*n+r] is feature f of row r
	y                 []int32
	order             []int32 // order[f*n:(f+1)*n] is the rows by ascending feature f
}

func newColumns(d Dataset) *columns {
	n, nf := d.Len(), d.NumFeatures()
	c := &columns{n: n, nf: nf, numClasses: d.NumClasses, val: make([]float64, n*nf),
		y: make([]int32, n), order: make([]int32, n*nf)}
	for r, x := range d.X {
		c.y[r] = int32(d.Y[r])
		for f, v := range x {
			c.val[f*n+r] = v
		}
	}
	for f := range nf {
		col, ord := c.val[f*n:(f+1)*n], c.order[f*n:(f+1)*n]
		for r := range ord {
			ord[r] = int32(r)
		}
		slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
	}
	return c
}

// grower fits trees on one columns set. It owns every buffer a fit
// needs, sized once, so a forest worker grows tree after tree
// allocating only the trees.
//
// A tree is fitted on the distinct rows of its bootstrap sample, each
// weighted by its multiplicity: a row drawn twice adds 2 to every class
// count where the textbook fit adds 1 twice, so the counts, the Gini
// scores and the chosen splits are the ones of the expanded sample.
type grower struct {
	c         *columns
	cfg       treeConfig
	subsample bool // draw k of nf features per split
	k         int

	mult []int32 // bootstrap multiplicity per row
	left []int32 // 1 where the row goes left at the split being applied
	// lists holds one list per feature (one, unordered, without
	// features), the sampled rows in that feature's order; a node is the
	// segment [lo,hi) of every list.
	lists []int32
	spill []int32 // right-hand rows while a segment is partitioned
	feats []int
	// counts is the node's class histogram; countsL/countsR the two
	// sides' during a scan.
	counts, countsL, countsR []float64
	nodes                    []treeNode
}

func newGrower(c *columns, cfg treeConfig) *grower {
	if cfg.minLeaf < 1 {
		cfg.minLeaf = 1
	}
	g := &grower{
		c: c, cfg: cfg, k: c.nf,
		mult: make([]int32, c.n), left: make([]int32, c.n),
		lists: make([]int32, max(c.nf, 1)*c.n), spill: make([]int32, c.n), feats: make([]int, c.nf),
		counts: make([]float64, c.numClasses), countsL: make([]float64, c.numClasses), countsR: make([]float64, c.numClasses),
	}
	if cfg.featureFrac > 0 && cfg.featureFrac < 1 && cfg.rng != nil {
		g.subsample = true
		g.k = max(1, int(cfg.featureFrac*float64(c.nf)))
	}
	return g
}

// bag draws the bootstrap sample: n rows with replacement, kept as
// per-row multiplicities.
func (g *grower) bag(rng *rand.Rand) {
	clear(g.mult)
	for range g.c.n {
		g.mult[rng.Intn(g.c.n)]++
	}
}

// grow fits one tree on the rows with nonzero multiplicity, filtering
// each feature's order through the sample: O(nf*n), no sorting.
func (g *grower) grow() *tree {
	c := g.c
	m := 0
	for f := range c.nf {
		list := g.lists[f*c.n : (f+1)*c.n]
		m = 0
		for _, r := range c.order[f*c.n : (f+1)*c.n] {
			list[m] = r
			m += int(min(g.mult[r], 1))
		}
	}
	if c.nf == 0 {
		// No feature to order by or split on: the tree is one leaf, and
		// list 0 only has to hold the sampled rows.
		for r := range c.n {
			g.lists[m] = int32(r)
			m += int(min(g.mult[r], 1))
		}
	}
	g.nodes = g.nodes[:0]
	g.build(0, m, 0)
	return &tree{nodes: slices.Clone(g.nodes), numClasses: c.numClasses}
}

// build grows the subtree over the segment [lo,hi) of every list, each
// in its feature's order, and returns its node index. Nodes are
// numbered depth first, left before right, and the feature subsample is
// drawn once per split attempt in that order: the RNG stream, and so
// the tree, is the textbook recursion's.
func (g *grower) build(lo, hi, depth int) int32 {
	c := g.c
	rows := g.lists[lo:hi]
	clear(g.counts)
	size := 0
	for _, r := range rows {
		g.counts[c.y[r]] += float64(g.mult[r])
		size += int(g.mult[r])
	}
	cls, classes := 0, 0
	for k, n := range g.counts {
		if n > g.counts[cls] {
			cls = k
		}
		if n > 0 {
			classes++
		}
	}
	nodeID := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1, class: cls})
	minLeaf := g.cfg.minLeaf
	if classes <= 1 || size < 2*minLeaf || (g.cfg.maxDepth > 0 && depth >= g.cfg.maxDepth) {
		return nodeID
	}
	feature, threshold, ok := g.bestSplit(lo, hi, size)
	if !ok {
		return nodeID
	}
	col := c.val[feature*c.n : (feature+1)*c.n]
	sizeL, rowsL := 0, 0
	for _, r := range rows {
		l := int32(0)
		if col[r] <= threshold {
			l = 1
		}
		g.left[r] = l
		sizeL += int(l * g.mult[r])
		rowsL += int(l)
	}
	if sizeL < minLeaf || size-sizeL < minLeaf {
		return nodeID
	}
	for f := range c.nf {
		g.partition(g.lists[f*c.n+lo : f*c.n+hi])
	}
	l := g.build(lo, lo+rowsL, depth+1)
	r := g.build(lo+rowsL, hi, depth+1)
	g.nodes[nodeID].feature = feature
	g.nodes[nodeID].threshold = threshold
	g.nodes[nodeID].left = l
	g.nodes[nodeID].right = r
	return nodeID
}

// partition moves seg's rows flagged left to its front; both sides keep
// their order, so a sorted list stays sorted on each side.
func (g *grower) partition(seg []int32) {
	nl, nr := 0, 0
	for _, r := range seg {
		b := g.left[r]
		seg[nl] = r
		g.spill[nr] = r
		nl += int(b)
		nr += int(1 - b)
	}
	copy(seg[nl:], g.spill[:nr])
}

// bestSplit finds the (feature, threshold) minimizing weighted Gini
// impurity over the candidate features of the node [lo,hi) holding size
// samples. Features are tried in subsample order, values ascending; the
// first strict improvement wins, no split falls between equal values,
// and the threshold is the midpoint of the two values it separates.
func (g *grower) bestSplit(lo, hi, size int) (feature int, threshold float64, ok bool) {
	feats := g.feats
	for i := range feats {
		feats[i] = i
	}
	if g.subsample {
		g.cfg.rng.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:g.k]
	}
	c := g.c
	n := float64(size)
	bestGini := 2.0 // impurity is in [0,1); 2 means "none found"
	for _, f := range feats {
		col := c.val[f*c.n : (f+1)*c.n]
		rows := g.lists[f*c.n+lo : f*c.n+hi]
		copy(g.countsR, g.counts)
		clear(g.countsL)
		nL, nR := 0.0, n
		for i := 0; i < len(rows)-1; i++ {
			r, next := rows[i], rows[i+1]
			w := float64(g.mult[r])
			g.countsL[c.y[r]] += w
			g.countsR[c.y[r]] -= w
			nL += w
			nR -= w
			if col[r] == col[next] {
				continue // can't split between equal values
			}
			gi := (nL*gini(g.countsL, nL) + nR*gini(g.countsR, nR)) / n
			if gi < bestGini {
				bestGini = gi
				feature = f
				threshold = (col[r] + col[next]) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// gini returns the Gini impurity of the class histogram counts with
// total n.
func gini(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / n
		s -= p * p
	}
	return s
}
