package ml

import (
	"fmt"
	"math/rand"
)

// The SVM's fixed hyperparameters.
const (
	svmEpochs = 50   // passes over the data
	svmLambda = 0.01 // L2 regularization strength
)

// SVMConfig controls linear-SVM training via Pegasos (primal SGD on the
// hinge loss), one-vs-rest for multi-class problems.
type SVMConfig struct {
	// Seed makes training deterministic.
	Seed int64
}

// SVM is a trained one-vs-rest linear SVM. It exists as the paper's
// Section 5.4 accuracy/speed baseline; SmartPSI ships Random Forest.
type SVM struct {
	weights [][]float64 // per class: weight vector + bias at the end
}

// TrainSVM fits a linear SVM on d with Pegasos.
func TrainSVM(d Dataset, cfg SVMConfig) (*SVM, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	nf := d.NumFeatures()
	s := &SVM{weights: make([][]float64, d.NumClasses)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for cls := 0; cls < d.NumClasses; cls++ {
		w := make([]float64, nf+1)
		t := 0
		for epoch := 0; epoch < svmEpochs; epoch++ {
			for _, i := range rng.Perm(d.Len()) {
				t++
				eta := 1 / (svmLambda * float64(t))
				y := -1.0
				if d.Y[i] == cls {
					y = 1.0
				}
				x := d.X[i]
				margin := w[nf] // bias
				for f, v := range x {
					margin += w[f] * v
				}
				margin *= y
				for f := 0; f < nf; f++ {
					w[f] *= 1 - eta*svmLambda
				}
				if margin < 1 {
					for f, v := range x {
						w[f] += eta * y * v
					}
					w[nf] += eta * y
				}
			}
		}
		s.weights[cls] = w
	}
	return s, nil
}

// Name implements Classifier.
func (s *SVM) Name() string { return "linear-svm" }

// Predict implements Classifier: the class with the largest margin.
func (s *SVM) Predict(x []float64) int {
	best, bestScore := 0, 0.0
	for cls, w := range s.weights {
		nf := len(w) - 1
		score := w[nf]
		for f, v := range x {
			if f < nf {
				score += w[f] * v
			}
		}
		if cls == 0 || score > bestScore {
			best, bestScore = cls, score
		}
	}
	return best
}
