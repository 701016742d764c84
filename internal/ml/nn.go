package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// The network's fixed hyperparameters.
const (
	nnHidden       = 16   // hidden-layer width
	nnEpochs       = 100  // passes over the data
	nnLearningRate = 0.05 // SGD step size
)

// NNConfig controls the small feed-forward network baseline: one hidden
// ReLU layer trained by SGD on the softmax cross-entropy.
type NNConfig struct {
	// Seed makes training deterministic.
	Seed int64
}

// NN is a trained one-hidden-layer network, the paper's Section 5.4
// neural baseline.
type NN struct {
	w1 [][]float64 // hidden x (features+1)
	w2 [][]float64 // classes x (hidden+1)
}

// TrainNN fits the network on d.
func TrainNN(d Dataset, cfg NNConfig) (*NN, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	nf := d.NumFeatures()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &NN{
		w1: make([][]float64, nnHidden),
		w2: make([][]float64, d.NumClasses),
	}
	scale1 := math.Sqrt(2 / float64(nf+1))
	for h := range n.w1 {
		n.w1[h] = make([]float64, nf+1)
		for i := range n.w1[h] {
			n.w1[h][i] = rng.NormFloat64() * scale1
		}
	}
	scale2 := math.Sqrt(2 / float64(nnHidden+1))
	for c := range n.w2 {
		n.w2[c] = make([]float64, nnHidden+1)
		for i := range n.w2[c] {
			n.w2[c][i] = rng.NormFloat64() * scale2
		}
	}

	hidden := make([]float64, nnHidden)
	logits := make([]float64, d.NumClasses)
	probs := make([]float64, d.NumClasses)
	dHidden := make([]float64, nnHidden)
	for epoch := 0; epoch < nnEpochs; epoch++ {
		for _, i := range rng.Perm(d.Len()) {
			x := d.X[i]
			n.forward(x, hidden, logits)
			softmax(logits, probs)
			// Backprop: output layer.
			for c := range n.w2 {
				grad := probs[c]
				if c == d.Y[i] {
					grad -= 1
				}
				w := n.w2[c]
				for h := 0; h < nnHidden; h++ {
					dh := grad * w[h]
					if hidden[h] <= 0 {
						dh = 0
					}
					if c == 0 {
						dHidden[h] = dh
					} else {
						dHidden[h] += dh
					}
					w[h] -= nnLearningRate * grad * hidden[h]
				}
				w[nnHidden] -= nnLearningRate * grad
			}
			// Hidden layer.
			for h := 0; h < nnHidden; h++ {
				if dHidden[h] == 0 {
					continue
				}
				w := n.w1[h]
				for f, v := range x {
					w[f] -= nnLearningRate * dHidden[h] * v
				}
				w[nf] -= nnLearningRate * dHidden[h]
			}
		}
	}
	return n, nil
}

func (n *NN) forward(x []float64, hidden, logits []float64) {
	for h, w := range n.w1 {
		nf := len(w) - 1
		s := w[nf]
		for f, v := range x {
			if f < nf {
				s += w[f] * v
			}
		}
		if s < 0 {
			s = 0 // ReLU
		}
		hidden[h] = s
	}
	for c, w := range n.w2 {
		nh := len(w) - 1
		s := w[nh]
		for h := 0; h < nh; h++ {
			s += w[h] * hidden[h]
		}
		logits[c] = s
	}
}

func softmax(logits, probs []float64) {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		probs[i] = math.Exp(v - max)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
}

// Name implements Classifier.
func (n *NN) Name() string { return "neural-net" }

// Predict implements Classifier.
func (n *NN) Predict(x []float64) int {
	hidden := make([]float64, len(n.w1))
	logits := make([]float64, len(n.w2))
	n.forward(x, hidden, logits)
	best := 0
	for c, v := range logits {
		if v > logits[best] {
			best = c
		}
	}
	return best
}
