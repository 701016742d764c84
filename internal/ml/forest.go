package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// ForestConfig controls Random Forest training (Breiman 2001).
type ForestConfig struct {
	// Trees is the ensemble size (default 20 — plenty for the small
	// training sets SmartPSI draws per query).
	Trees int
	// MaxDepth bounds each tree (default 12).
	MaxDepth int
	// MinLeaf is the minimum leaf size (default 1).
	MinLeaf int
	// Seed makes training deterministic.
	Seed int64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 20
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	return c
}

// Forest is a trained Random Forest: bootstrap-sampled CART trees with
// sqrt-feature subsampling, predicting by majority vote.
type Forest struct {
	trees      []*Tree
	numClasses int
}

// TrainForest fits a Random Forest on d.
func TrainForest(d Dataset, cfg ForestConfig) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	cfg = cfg.withDefaults()
	f := &Forest{trees: make([]*Tree, cfg.Trees), numClasses: d.NumClasses}
	featureFrac := math.Sqrt(float64(d.NumFeatures())) / float64(d.NumFeatures())

	// Derive one independent seed per tree up front so training is
	// deterministic regardless of goroutine scheduling.
	seeds := make([]int64, cfg.Trees)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.Trees)
	sem := make(chan struct{}, workers)
	for i := 0; i < cfg.Trees; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seeds[i]))
			boot := Dataset{NumClasses: d.NumClasses}
			boot.X = make([][]float64, d.Len())
			boot.Y = make([]int, d.Len())
			for j := range boot.X {
				r := rng.Intn(d.Len())
				boot.X[j] = d.X[r]
				boot.Y[j] = d.Y[r]
			}
			tree, err := TrainTree(boot, TreeConfig{
				MaxDepth:    cfg.MaxDepth,
				MinLeaf:     cfg.MinLeaf,
				FeatureFrac: featureFrac,
				rng:         rng,
			})
			f.trees[i] = tree
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

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
	for c := range votes {
		votes[c] = 0
	}
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	best, bestVotes := 0, -1
	for c, v := range votes {
		if v > bestVotes {
			best, bestVotes = c, v
		}
	}
	return best
}

// NumClasses returns the number of classes the forest votes over.
func (f *Forest) NumClasses() int { return f.numClasses }

// PredictProba returns the per-class vote fractions for x.
func (f *Forest) PredictProba(x []float64) []float64 {
	votes := make([]float64, f.numClasses)
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	for c := range votes {
		votes[c] /= float64(len(f.trees))
	}
	return votes
}

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
