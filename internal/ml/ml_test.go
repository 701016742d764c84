package ml

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// trainTree fits a single CART tree on d: the forest's grower on every
// row once, splitting over all features.
func trainTree(d Dataset, cfg treeConfig) (*tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	g := newGrower(newColumns(d), cfg)
	for r := range g.mult {
		g.mult[r] = 1
	}
	return g.grow(), nil
}

// blobs returns a well-separated synthetic classification problem:
// classes are Gaussian blobs around distinct centers.
func blobs(n, features, classes int, noise float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := Dataset{NumClasses: classes}
	for i := 0; i < n; i++ {
		cls := i % classes
		x := make([]float64, features)
		for f := range x {
			center := 0.0
			if f%classes == cls {
				center = 3.0
			}
			x[f] = center + rng.NormFloat64()*noise
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, cls)
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	good := Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}, NumClasses: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good dataset rejected: %v", err)
	}
	bad := []Dataset{
		{X: [][]float64{{1}}, Y: []int{0, 1}, NumClasses: 2},         // length mismatch
		{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 0}, NumClasses: 2}, // ragged
		{X: [][]float64{{1}}, Y: []int{5}, NumClasses: 2},            // label range
		{X: nil, Y: nil, NumClasses: 0},                              // classes
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dataset %d accepted", i)
		}
	}
	if good.NumFeatures() != 2 || good.Len() != 2 {
		t.Error("accessors wrong")
	}
	if (Dataset{NumClasses: 1}).NumFeatures() != 0 {
		t.Error("empty NumFeatures != 0")
	}
}

func TestSplit(t *testing.T) {
	d := blobs(100, 4, 2, 0.5, 1)
	train, test := d.Split(0.7, rand.New(rand.NewSource(2)))
	if train.Len() != 70 || test.Len() != 30 {
		t.Errorf("split sizes %d/%d, want 70/30", train.Len(), test.Len())
	}
	if train.NumClasses != 2 || test.NumClasses != 2 {
		t.Error("split lost NumClasses")
	}
}

func TestTreeLearnsSeparableData(t *testing.T) {
	d := blobs(200, 6, 3, 0.3, 3)
	train, test := d.Split(0.7, rand.New(rand.NewSource(4)))
	tree, err := trainTree(train, treeConfig{maxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, test); acc < 0.9 {
		t.Errorf("tree accuracy %.3f on separable blobs, want >= 0.9", acc)
	}
	if tree.Name() != "decision-tree" {
		t.Error("name wrong")
	}
	if tree.NumNodes() < 3 {
		t.Errorf("tree has %d nodes; did it split at all?", tree.NumNodes())
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	d := Dataset{
		X:          [][]float64{{1}, {2}, {3}},
		Y:          []int{1, 1, 1},
		NumClasses: 2,
	}
	tree, err := trainTree(d, treeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("pure dataset grew %d nodes, want 1", tree.NumNodes())
	}
	if tree.Predict([]float64{42}) != 1 {
		t.Error("pure-leaf prediction wrong")
	}
}

func TestTreeConstantFeatures(t *testing.T) {
	// No split possible: all feature values identical but labels mixed.
	d := Dataset{
		X:          [][]float64{{1}, {1}, {1}, {1}},
		Y:          []int{0, 1, 0, 0},
		NumClasses: 2,
	}
	tree, err := trainTree(d, treeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("unsplittable dataset grew %d nodes", tree.NumNodes())
	}
	if tree.Predict([]float64{1}) != 0 { // majority
		t.Error("majority prediction wrong")
	}
}

func TestTrainErrors(t *testing.T) {
	empty := Dataset{NumClasses: 2}
	if _, err := trainTree(empty, treeConfig{}); err == nil {
		t.Error("tree accepted empty set")
	}
	if _, err := TrainForest(empty, ForestConfig{}); err == nil {
		t.Error("forest accepted empty set")
	}
	if _, err := TrainSVM(empty, SVMConfig{}); err == nil {
		t.Error("svm accepted empty set")
	}
	if _, err := TrainNN(empty, NNConfig{}); err == nil {
		t.Error("nn accepted empty set")
	}
	bad := Dataset{X: [][]float64{{1}}, Y: []int{3}, NumClasses: 2}
	if _, err := TrainForest(bad, ForestConfig{}); err == nil {
		t.Error("forest accepted invalid labels")
	}
}

func TestForestLearnsSeparableData(t *testing.T) {
	d := blobs(300, 8, 3, 0.5, 5)
	train, test := d.Split(0.7, rand.New(rand.NewSource(6)))
	f, err := TrainForest(train, ForestConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(f, test); acc < 0.9 {
		t.Errorf("forest accuracy %.3f, want >= 0.9", acc)
	}
	if f.NumTrees() != forestTrees {
		t.Errorf("NumTrees = %d, want %d", f.NumTrees(), forestTrees)
	}
	if f.Name() != "random-forest" {
		t.Error("name wrong")
	}
}

// TestForestDeterministic: a forest is a function of (dataset, Seed) —
// the same node arrays on every run and at any GOMAXPROCS.
func TestForestDeterministic(t *testing.T) {
	d := blobs(100, 4, 2, 0.8, 8)
	train := func(procs int) *Forest {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f, err := TrainForest(d, ForestConfig{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := train(1)
	if err := sameForest(train(1), f1); err != nil {
		t.Fatalf("same seed, second run: %v", err)
	}
	if err := sameForest(train(4), f1); err != nil {
		t.Fatalf("same seed, GOMAXPROCS 4 vs 1: %v", err)
	}
	other, err := TrainForest(d, ForestConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if sameForest(other, f1) == nil {
		t.Error("seeds 42 and 43 grew identical forests")
	}
}

func TestSVMLearnsSeparableData(t *testing.T) {
	d := blobs(300, 6, 2, 0.4, 10)
	train, test := d.Split(0.7, rand.New(rand.NewSource(11)))
	s, err := TrainSVM(train, SVMConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(s, test); acc < 0.9 {
		t.Errorf("svm accuracy %.3f, want >= 0.9", acc)
	}
	if s.Name() != "linear-svm" {
		t.Error("name wrong")
	}
}

func TestSVMMultiClass(t *testing.T) {
	d := blobs(300, 9, 3, 0.4, 13)
	train, test := d.Split(0.7, rand.New(rand.NewSource(14)))
	s, err := TrainSVM(train, SVMConfig{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(s, test); acc < 0.85 {
		t.Errorf("multi-class svm accuracy %.3f, want >= 0.85", acc)
	}
}

func TestNNLearnsSeparableData(t *testing.T) {
	d := blobs(300, 6, 3, 0.4, 16)
	train, test := d.Split(0.7, rand.New(rand.NewSource(17)))
	n, err := TrainNN(train, NNConfig{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(n, test); acc < 0.85 {
		t.Errorf("nn accuracy %.3f, want >= 0.85", acc)
	}
	if n.Name() != "neural-net" {
		t.Error("name wrong")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	d := blobs(10, 2, 2, 0.1, 19)
	tree, err := trainTree(d, treeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Accuracy(tree, Dataset{NumClasses: 2}); got != 1 {
		t.Errorf("Accuracy on empty = %v, want 1", got)
	}
}

// TestForestNeverWorseThanChance: on random-labeled data the forest
// still trains without error and predicts in-range classes.
func TestForestRobustToNoise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Dataset{NumClasses: 3}
		for i := 0; i < 30; i++ {
			d.X = append(d.X, []float64{rng.Float64(), rng.Float64()})
			d.Y = append(d.Y, rng.Intn(3))
		}
		forest, err := TrainForest(d, ForestConfig{Seed: seed})
		if err != nil {
			return false
		}
		for _, x := range d.X {
			if c := forest.Predict(x); c < 0 || c >= 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMajority(t *testing.T) {
	cls, pure := majority([]int{1, 1, 1}, 3)
	if cls != 1 || !pure {
		t.Errorf("majority pure = %d,%v", cls, pure)
	}
	cls, pure = majority([]int{0, 1, 1, 2}, 3)
	if cls != 1 || pure {
		t.Errorf("majority mixed = %d,%v", cls, pure)
	}
	// Tie goes to the lowest class id.
	cls, _ = majority([]int{2, 0, 0, 2}, 3)
	if cls != 0 {
		t.Errorf("tie broke to %d, want 0", cls)
	}
}
