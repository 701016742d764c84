package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// The forest's fixed hyperparameters: plenty for the small training
// sets SmartPSI draws per query.
const (
	forestTrees    = 20 // ensemble size
	forestMaxDepth = 12 // bound on each tree's height
)

// ForestConfig controls Random Forest training (Breiman 2001).
type ForestConfig struct {
	// Seed makes training deterministic.
	Seed int64
}

// Forest is a trained Random Forest: bootstrap-sampled CART trees with
// sqrt-feature subsampling, predicting by majority vote.
type Forest struct {
	trees      []*tree // the fitted trees; the seed oracle compares them
	numClasses int
	flat       *flatForest // the same trees laid out for prediction
}

// TrainForest fits a Random Forest on d.
func TrainForest(d Dataset, cfg ForestConfig) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	f := &Forest{trees: make([]*tree, forestTrees), numClasses: d.NumClasses}
	c := newColumns(d)
	tc := treeConfig{maxDepth: forestMaxDepth, featureFrac: math.Sqrt(float64(c.nf)) / float64(c.nf)}

	// Derive one independent seed per tree up front so training is
	// deterministic regardless of goroutine scheduling.
	seeds := make([]splitMix64, forestTrees)
	next := splitMix64(cfg.Seed)
	for i := range seeds {
		seeds[i] = splitMix64(next.Uint64())
	}

	// Each worker claims trees in turn and grows them with its own
	// scratch; tree i is a function of seeds[i] alone.
	var claimed atomic.Int64
	work := func() {
		var src splitMix64
		tc := tc
		tc.rng = rand.New(&src)
		g := newGrower(c, tc)
		for i := int(claimed.Add(1) - 1); i < forestTrees; i = int(claimed.Add(1) - 1) {
			src = seeds[i]
			g.bag(tc.rng)
			f.trees[i] = g.grow()
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), forestTrees) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	f.flat = flatten(f.trees, f.numClasses)
	return f, nil
}

// splitMix64 is SplitMix64 (Steele, Lea and Flood 2014) as a
// rand.Source64. Its state is one word, so seeding a tree's generator is
// an assignment where math/rand's default source fills 607 words.
type splitMix64 uint64

// Seed implements rand.Source.
func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }

// Uint64 implements rand.Source64.
func (s *splitMix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Int63 implements rand.Source.
func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Name implements Classifier.
func (f *Forest) Name() string { return "random-forest" }

// Predict implements Classifier: majority vote across trees, ties to the
// lowest class id.
func (f *Forest) Predict(x []float64) int {
	return f.PredictInto(x, make([]int, f.numClasses))
}

// PredictInto is Predict with a caller-provided vote scratch slice of
// length NumClasses, for allocation-free hot loops.
func (f *Forest) PredictInto(x []float64, votes []int) int {
	clear(votes)
	if fl := f.flat; fl != nil && len(x) >= fl.width && x[0] == x[0] {
		fl.vote(x, votes)
	} else {
		f.voteTrees(x, votes)
	}
	best, bestVotes := 0, -1
	for c, v := range votes {
		if v > bestVotes {
			best, bestVotes = c, v
		}
	}
	return best
}

// voteTrees adds each tree's vote for x by walking the trees one by one:
// the reference the flat walk must match, and the path for the rows it
// cannot take (shorter than a split's feature, or NaN in x[0]).
func (f *Forest) voteTrees(x []float64, votes []int) {
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
}

// NumClasses returns the number of classes the forest votes over.
func (f *Forest) NumClasses() int { return f.numClasses }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumNodes returns the total tree-node count across the ensemble — what
// a trained forest's memory is proportional to.
func (f *Forest) NumNodes() int {
	n := 0
	for _, t := range f.trees {
		n += t.NumNodes()
	}
	return n
}
