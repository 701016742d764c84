package ml

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The flat walk must vote exactly as the per-tree walk: same class,
// same vote vector, on every row.

// thresholds returns every split threshold of f's trees.
func thresholds(f *Forest) []float64 {
	var ts []float64
	for _, t := range f.trees {
		for _, n := range t.nodes {
			if n.feature >= 0 {
				ts = append(ts, n.threshold)
			}
		}
	}
	return ts
}

// checkWalks compares, on x, PredictInto and (when x can take it) the
// flat walk itself against the per-tree walk.
func checkWalks(t testing.TB, f *Forest, x []float64) {
	t.Helper()
	want := make([]int, f.numClasses)
	f.voteTrees(x, want)
	wantCls := (&Forest{numClasses: f.numClasses, trees: f.trees}).PredictInto(x, make([]int, f.numClasses))
	got := make([]int, f.numClasses)
	if cls := f.PredictInto(x, got); cls != wantCls || !slices.Equal(got, want) {
		t.Fatalf("row %v: PredictInto = %d %v, tree walk %d %v", x, cls, got, wantCls, want)
	}
	if fl := f.flat; len(x) >= fl.width && !math.IsNaN(x[0]) {
		clear(got)
		fl.vote(x, got)
		if !slices.Equal(got, want) {
			t.Fatalf("row %v: flat votes %v, tree walk %v", x, got, want)
		}
	}
}

// specials are the values a comparison can get wrong at the edges.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}

// TestFlatWalkMatchesTrees: on forests fitted to generated datasets of
// every value kind, the flat walk gives the per-tree walk's class and
// vote vector on every training row; on 10k generated rows whose values
// are drawn from the training values, the split thresholds themselves
// (so x == threshold is common) and NaN/±Inf; and on rows shorter than
// the features the splits read.
func TestFlatWalkMatchesTrees(t *testing.T) {
	for i := range 12 {
		rng := rand.New(rand.NewSource(int64(i)))
		kind := valueKind(i % 4)
		nf, classes := 1+rng.Intn(30), 2+rng.Intn(5)
		d := genDataset(rng, 50+rng.Intn(600), nf, classes, kind)
		f, err := TrainForest(d, ForestConfig{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if f.flat == nil {
			t.Fatalf("case %d: forest not flattened", i)
		}
		t.Run(fmt.Sprintf("case%d_kind%d_%dx%d", i, kind, d.Len(), nf), func(t *testing.T) {
			for _, x := range d.X {
				checkWalks(t, f, x)
			}
			pool := append(thresholds(f), specials...)
			for _, x := range d.X[:min(d.Len(), 50)] {
				pool = append(pool, x...)
			}
			x := make([]float64, nf)
			for range 10000 {
				for j := range x {
					x[j] = pool[rng.Intn(len(pool))]
				}
				checkWalks(t, f, x)
			}
			for n := range nf + 1 {
				checkWalks(t, f, d.X[rng.Intn(d.Len())][:n])
			}
		})
	}
}

// TestFlatWalkTreeCounts covers forests whose tree count is not a
// multiple of the lockstep width, and single-leaf trees.
func TestFlatWalkTreeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := genDataset(rng, 300, 8, 3, signature)
	var trees []*tree
	for k := range 9 {
		cfg := treeConfig{maxDepth: k % 5, featureFrac: 0.5, rng: rand.New(rand.NewSource(int64(k)))}
		g := newGrower(newColumns(d), cfg)
		g.bag(cfg.rng)
		trees = append(trees, g.grow())
	}
	for n := 1; n <= len(trees); n++ {
		f := &Forest{trees: trees[:n], numClasses: 3}
		f.flat = flatten(f.trees, f.numClasses)
		for _, x := range d.X {
			checkWalks(t, f, x)
		}
	}
}

// FuzzFlatWalk: on arbitrary rows (any length, any float64 bit pattern,
// NaN and ±Inf included) a YouTube-shaped α forest predicts the same
// class and votes through the flat walk as through its trees.
func FuzzFlatWalk(f *testing.F) {
	forest := fuzzForest(f)
	row := func(x []float64) []byte {
		b := make([]byte, 8*len(x))
		for i, v := range x {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	d := genDataset(rand.New(rand.NewSource(2)), 8, 25, 2, signature)
	for _, x := range d.X {
		f.Add(row(x))
	}
	ts := thresholds(forest)
	f.Add(row(ts[:25]))
	f.Add(row(append(slices.Clone(ts[:24]), math.NaN())))
	f.Add(row([]float64{math.Inf(1), math.Inf(-1)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		x := make([]float64, len(b)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkWalks(t, forest, x)
	})
}

// fuzzForest fits the YouTube-shaped α forest of forestShapes.
func fuzzForest(tb testing.TB) *Forest {
	s := forestShapes[1]
	d := genDataset(rand.New(rand.NewSource(1)), s.n, s.nf, s.classes, signature)
	f, err := TrainForest(d, ForestConfig{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// BenchmarkForestPredict times one prediction of the YouTube-shaped α
// forest of forestShapes over its training rows, walking the trees one
// by one (/trees) and the flat layout (/flat).
//
//	go test -run '^$' -bench ForestPredict ./internal/ml/
func BenchmarkForestPredict(b *testing.B) {
	s := forestShapes[1]
	d := genDataset(rand.New(rand.NewSource(1)), s.n, s.nf, s.classes, signature)
	flat := fuzzForest(b)
	trees := &Forest{trees: flat.trees, numClasses: flat.numClasses}
	votes := make([]int, flat.NumClasses())
	for _, w := range []struct {
		name string
		f    *Forest
	}{{"trees", trees}, {"flat", flat}} {
		b.Run(s.name+"/"+w.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				w.f.PredictInto(d.X[i%len(d.X)], votes)
				i++
			}
		})
	}
}
