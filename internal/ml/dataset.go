// Package ml provides the from-scratch machine-learning substrate of
// SmartPSI: the Random Forest classifier (of CART decision trees) used
// for model α (node type) and model β (plan choice), and the linear-SVM
// and neural-network baselines of the paper's Section 5.4 model
// comparison. Each learner's hyperparameters are fixed; its config
// carries only the seed.
//
// Everything is stdlib-only and deterministic given a seed.
package ml

import (
	"fmt"
	"math/rand"
)

// Dataset is a supervised classification sample set: row i has feature
// vector X[i] and class label Y[i] in [0, NumClasses).
type Dataset struct {
	X          [][]float64
	Y          []int
	NumClasses int
}

// Validate checks structural consistency.
func (d Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d feature rows, %d labels", len(d.X), len(d.Y))
	}
	if d.NumClasses < 1 {
		return fmt.Errorf("ml: NumClasses = %d", d.NumClasses)
	}
	var width = -1
	for i, x := range d.X {
		if width == -1 {
			width = len(x)
		} else if len(x) != width {
			return fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(x), width)
		}
		if d.Y[i] < 0 || d.Y[i] >= d.NumClasses {
			return fmt.Errorf("ml: row %d label %d out of [0,%d)", i, d.Y[i], d.NumClasses)
		}
	}
	return nil
}

// Len returns the number of rows.
func (d Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature-vector width (0 for an empty set).
func (d Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Split partitions d into train and test sets with the given train
// fraction, shuffled by rng.
func (d Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test Dataset) {
	n := d.Len()
	perm := rng.Perm(n)
	cut := int(trainFrac * float64(n))
	train = Dataset{NumClasses: d.NumClasses}
	test = Dataset{NumClasses: d.NumClasses}
	for i, p := range perm {
		if i < cut {
			train.X = append(train.X, d.X[p])
			train.Y = append(train.Y, d.Y[p])
		} else {
			test.X = append(test.X, d.X[p])
			test.Y = append(test.Y, d.Y[p])
		}
	}
	return train, test
}

// Classifier is a trained multi-class model.
type Classifier interface {
	// Predict returns the predicted class of x.
	Predict(x []float64) int
	// Name identifies the model family.
	Name() string
}

// Accuracy returns the fraction of rows of d that clf classifies
// correctly (1.0 for an empty set).
func Accuracy(clf Classifier, d Dataset) float64 {
	if d.Len() == 0 {
		return 1
	}
	correct := 0
	for i, x := range d.X {
		if clf.Predict(x) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}
