package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// The seed CART below is the fitter the presorted grower replaced, kept
// as its oracle: it copies the bootstrap sample row by row and re-sorts
// every sampled feature at every node. Given the same *rand.Rand both
// must build the same trees node for node.

// seedTrainTree is the seed trainTree after validation.
func seedTrainTree(d Dataset, cfg treeConfig) *tree {
	if cfg.minLeaf < 1 {
		cfg.minLeaf = 1
	}
	t := &tree{numClasses: d.NumClasses}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	seedBuild(t, d, idx, cfg, 0)
	return t
}

// seedBaggedTree is one tree of the seed forest: n bootstrap draws from
// rng, then a tree whose feature subsampling reads the same rng.
func seedBaggedTree(d Dataset, cfg treeConfig, rng *rand.Rand) *tree {
	boot := Dataset{NumClasses: d.NumClasses}
	boot.X = make([][]float64, d.Len())
	boot.Y = make([]int, d.Len())
	for j := range boot.X {
		r := rng.Intn(d.Len())
		boot.X[j] = d.X[r]
		boot.Y[j] = d.Y[r]
	}
	cfg.rng = rng
	return seedTrainTree(boot, cfg)
}

// seedTrainForest is the seed TrainForest: a goroutine per tree, each
// seeding its own math/rand source.
func seedTrainForest(d Dataset, cfg ForestConfig) *Forest {
	f := &Forest{trees: make([]*tree, forestTrees), numClasses: d.NumClasses}
	featureFrac := math.Sqrt(float64(d.NumFeatures())) / float64(d.NumFeatures())
	seeds := make([]int64, forestTrees)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}
	workers := min(runtime.GOMAXPROCS(0), forestTrees)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < forestTrees; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f.trees[i] = seedBaggedTree(d, treeConfig{maxDepth: forestMaxDepth, featureFrac: featureFrac},
				rand.New(rand.NewSource(seeds[i])))
		}(i)
	}
	wg.Wait()
	return f
}

func seedBuild(t *tree, d Dataset, idx []int, cfg treeConfig, depth int) int32 {
	ys := make([]int, len(idx))
	for i, r := range idx {
		ys[i] = d.Y[r]
	}
	cls, pure := majority(ys, d.NumClasses)
	nodeID := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1, class: cls})
	if pure || len(idx) < 2*cfg.minLeaf || (cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return nodeID
	}
	feature, threshold, ok := seedBestSplit(d, idx, cfg)
	if !ok {
		return nodeID
	}
	var left, right []int
	for _, r := range idx {
		if d.X[r][feature] <= threshold {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < cfg.minLeaf || len(right) < cfg.minLeaf {
		return nodeID
	}
	l := seedBuild(t, d, left, cfg, depth+1)
	r := seedBuild(t, d, right, cfg, depth+1)
	t.nodes[nodeID].feature = feature
	t.nodes[nodeID].threshold = threshold
	t.nodes[nodeID].left = l
	t.nodes[nodeID].right = r
	return nodeID
}

func seedBestSplit(d Dataset, idx []int, cfg treeConfig) (feature int, threshold float64, ok bool) {
	nf := d.NumFeatures()
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if cfg.featureFrac > 0 && cfg.featureFrac < 1 && cfg.rng != nil {
		k := int(cfg.featureFrac * float64(nf))
		if k < 1 {
			k = 1
		}
		cfg.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:k]
	}

	bestGini := 2.0
	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, len(idx))
	countsL := make([]float64, d.NumClasses)
	countsR := make([]float64, d.NumClasses)
	for _, f := range features {
		for i, r := range idx {
			vals[i] = fv{v: d.X[r][f], y: d.Y[r]}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		for c := range countsL {
			countsL[c] = 0
			countsR[c] = 0
		}
		for _, e := range vals {
			countsR[e.y]++
		}
		nL, nR := 0.0, float64(len(vals))
		for i := 0; i < len(vals)-1; i++ {
			countsL[vals[i].y]++
			countsR[vals[i].y]--
			nL++
			nR--
			if vals[i].v == vals[i+1].v {
				continue
			}
			g := (nL*gini(countsL, nL) + nR*gini(countsR, nR)) / float64(len(vals))
			if g < bestGini {
				bestGini = g
				feature = f
				threshold = (vals[i].v + vals[i+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// majority returns the most frequent class among ys (ties to the lowest
// class id) and whether ys is pure (single class).
func majority(ys []int, numClasses int) (cls int, pure bool) {
	counts := make([]int, numClasses)
	for _, y := range ys {
		counts[y]++
	}
	best, bestCount, nonzero := 0, -1, 0
	for c, n := range counts {
		if n > 0 {
			nonzero++
		}
		if n > bestCount {
			best, bestCount = c, n
		}
	}
	return best, nonzero <= 1
}

// valueKind selects how genDataset draws feature values.
type valueKind int

const (
	// signature values are shaped like depth-2 signature rows: a row's
	// own label plus ½ per neighbour and ¼ per two-hop path with the
	// feature's label, over a skewed degree. Low degrees tie, high
	// degrees spread.
	signature valueKind = iota
	// ties are small counts times 1/4, mostly zero: heavy ties.
	ties
	// continuous values are Gaussian: no ties.
	continuous
	// ulps values are 1 plus a few ulps, so a split midpoint can round
	// onto the value above it.
	ulps
)

// genDataset draws n rows of nf features; three quarters of the labels
// follow the first features, the rest are noise.
func genDataset(rng *rand.Rand, n, nf, classes int, kind valueKind) Dataset {
	d := Dataset{NumClasses: classes}
	for range n {
		deg := 1
		for rng.Intn(5) != 0 {
			deg++
		}
		x := make([]float64, nf)
		for f := range x {
			switch kind {
			case signature:
				p := 1 / float64(2+f%5) // the label's frequency
				k := 0
				if rng.Float64() < p/4 {
					k = 4
				}
				for range deg {
					if rng.Float64() < p {
						k += 2
					}
					k += rng.Intn(1 + int(8*p))
				}
				x[f] = float64(k) / 4
			case ties:
				k := 0
				for rng.Intn(3) == 0 {
					k++
				}
				x[f] = float64(k*(1+f%3)) / 4
			case continuous:
				x[f] = rng.NormFloat64()
			case ulps:
				x[f] = 1
				for range rng.Intn(4) {
					x[f] = math.Nextafter(x[f], 2)
				}
			}
		}
		y := rng.Intn(classes)
		if rng.Intn(4) != 0 {
			s := 0.0
			for _, v := range x[:min(nf, 3)] {
				s += v
			}
			y = int(math.Abs(s)*4) % classes
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// sameTree reports the first difference between two trees' node arrays.
func sameTree(got, want *tree) error {
	if got.numClasses != want.numClasses {
		return fmt.Errorf("%d classes, want %d", got.numClasses, want.numClasses)
	}
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for i := range want.nodes {
		if got.nodes[i] != want.nodes[i] {
			return fmt.Errorf("node %d is %+v, want %+v", i, got.nodes[i], want.nodes[i])
		}
	}
	return nil
}

// sameForest reports the first difference between two forests' trees.
func sameForest(got, want *Forest) error {
	if len(got.trees) != len(want.trees) {
		return fmt.Errorf("%d trees, want %d", len(got.trees), len(want.trees))
	}
	for i := range want.trees {
		if err := sameTree(got.trees[i], want.trees[i]); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
	}
	return nil
}

// TestPresortedMatchesSeed: on generated datasets (1-1000 rows, 0-50
// features, 2-6 classes; signature-like, tied, continuous and
// ulp-spaced values; several depth and leaf bounds) the grower builds
// the seed CART's trees node for node — bagged forest trees with
// feature subsampling from the same RNG, and, every fifth case, the
// all-feature tree of trainTree.
func TestPresortedMatchesSeed(t *testing.T) {
	sizes := []int{8, 60, 300, 1000}
	depths := []int{0, 1, 4, 12}
	leaves := []int{1, 2, 5}
	for i := range 360 {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 1 + rng.Intn(sizes[i%len(sizes)])
		nf := rng.Intn(51)
		classes := 2 + rng.Intn(5)
		kind := valueKind(i / len(sizes) % 4)
		d := genDataset(rng, n, nf, classes, kind)
		cfg := treeConfig{
			maxDepth:    depths[rng.Intn(len(depths))],
			minLeaf:     leaves[rng.Intn(len(leaves))],
			featureFrac: math.Sqrt(float64(nf)) / float64(nf),
		}
		name := fmt.Sprintf("case %d (%dx%d, %d classes, kind %d, depth %d, leaf %d)",
			i, n, nf, classes, kind, cfg.maxDepth, cfg.minLeaf)

		seed := rng.Int63()
		want := seedBaggedTree(d, cfg, rand.New(rand.NewSource(seed)))
		bagged := cfg
		bagged.rng = rand.New(rand.NewSource(seed))
		g := newGrower(newColumns(d), bagged)
		g.bag(bagged.rng)
		if err := sameTree(g.grow(), want); err != nil {
			t.Fatalf("%s, bagged: %v", name, err)
		}

		if i%5 == 0 {
			cfg.featureFrac = 0
			got, err := trainTree(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, seedTrainTree(d, cfg)); err != nil {
				t.Fatalf("%s, trainTree: %v", name, err)
			}
		}
	}
}

// TestForestMatchesSeedTrees: TrainForest's tree i is the seed fitter's
// bagged tree under a generator seeded with the i-th SplitMix64 output
// of ForestConfig.Seed; the worker pool and shared presort change
// nothing.
func TestForestMatchesSeedTrees(t *testing.T) {
	for i, s := range forestShapes {
		d := genDataset(rand.New(rand.NewSource(int64(i))), s.n, s.nf, s.classes, signature)
		cfg := ForestConfig{Seed: int64(i) + 1}
		f, err := TrainForest(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc := treeConfig{maxDepth: forestMaxDepth, featureFrac: math.Sqrt(float64(s.nf)) / float64(s.nf)}
		next := splitMix64(cfg.Seed)
		for k, tree := range f.trees {
			src := splitMix64(next.Uint64())
			if err := sameTree(tree, seedBaggedTree(d, tc, rand.New(&src))); err != nil {
				t.Fatalf("%s tree %d: %v", s.name, k, err)
			}
		}
	}
}

// forestShapes are the realist's model shapes: Human's α (19 training
// rows of 44-label signatures), YouTube's α (600 rows, 25 labels) and
// YouTube's β (the ≤100 swept rows, six plan classes).
var forestShapes = []struct {
	name           string
	n, nf, classes int
}{
	{"human_alpha_19x44", 19, 44, 2},
	{"youtube_alpha_600x25", 600, 25, 2},
	{"youtube_beta_100x25", 100, 25, 6},
}

// BenchmarkTrainForest fits the default 20-tree forest at each of
// forestShapes with TrainForest and, under /seed, with the seed fitter.
//
//	go test -run '^$' -bench TrainForest -benchmem ./internal/ml/
func BenchmarkTrainForest(b *testing.B) {
	for _, s := range forestShapes {
		d := genDataset(rand.New(rand.NewSource(1)), s.n, s.nf, s.classes, signature)
		cfg := ForestConfig{Seed: 1}
		b.Run(s.name+"/presorted", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := TrainForest(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"/seed", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				seedTrainForest(d, cfg)
			}
		})
	}
}
