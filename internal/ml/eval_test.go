package ml

import (
	"math"
	"testing"
)

func TestConfusionMatrixBasics(t *testing.T) {
	m := NewConfusionMatrix(2)
	// 3 true positives of class 1, 1 false negative, 4 true negatives,
	// 2 false positives.
	for i := 0; i < 3; i++ {
		m.Observe(1, 1)
	}
	m.Observe(1, 0)
	for i := 0; i < 4; i++ {
		m.Observe(0, 0)
	}
	m.Observe(0, 1)
	m.Observe(0, 1)

	if got := m.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	if got := m.Accuracy(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.7", got)
	}
	if got := m.Precision(1); math.Abs(got-3.0/5) > 1e-12 {
		t.Errorf("Precision(1) = %v, want 0.6", got)
	}
	if got := m.Recall(1); math.Abs(got-3.0/4) > 1e-12 {
		t.Errorf("Recall(1) = %v, want 0.75", got)
	}
	wantF1 := 2 * 0.6 * 0.75 / (0.6 + 0.75)
	if got := m.F1(1); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1(1) = %v, want %v", got, wantF1)
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}

func TestConfusionMatrixEdgeCases(t *testing.T) {
	m := NewConfusionMatrix(3)
	if m.Accuracy() != 1 {
		t.Error("empty matrix accuracy should be 1")
	}
	if m.Precision(0) != 1 || m.Recall(0) != 1 {
		t.Error("never-seen class precision/recall should be 1")
	}
	m.Observe(0, 1)
	if m.F1(2) != 1 { // precision 1, recall 1 for the unseen class
		t.Errorf("F1 of untouched class = %v", m.F1(2))
	}
}

func TestEvaluate(t *testing.T) {
	d := blobs(120, 4, 2, 0.3, 21)
	tree, err := trainTree(d, treeConfig{maxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(tree, d)
	if m.Total() != 120 {
		t.Errorf("Total = %d", m.Total())
	}
	if m.Accuracy() < 0.9 {
		t.Errorf("in-sample accuracy %.3f suspiciously low", m.Accuracy())
	}
}

func TestCrossValidate(t *testing.T) {
	d := blobs(150, 6, 3, 0.4, 22)
	accs, err := CrossValidate(d, 5, 1, func(train Dataset) (Classifier, error) {
		return TrainForest(train, ForestConfig{Seed: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 5 {
		t.Fatalf("got %d folds", len(accs))
	}
	mean, std := MeanStd(accs)
	if mean < 0.85 {
		t.Errorf("cv mean accuracy %.3f too low (std %.3f)", mean, std)
	}
	// Error paths.
	if _, err := CrossValidate(d, 1, 1, nil); err == nil {
		t.Error("k=1 accepted")
	}
	tiny := Dataset{X: [][]float64{{1}}, Y: []int{0}, NumClasses: 1}
	if _, err := CrossValidate(tiny, 5, 1, nil); err == nil {
		t.Error("too-small dataset accepted")
	}
	_, err = CrossValidate(d, 3, 1, func(Dataset) (Classifier, error) {
		return nil, errFake
	})
	if err == nil {
		t.Error("trainer error swallowed")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 || math.Abs(std-2) > 1e-12 {
		t.Errorf("MeanStd = %v, %v; want 5, 2", mean, std)
	}
	mean, std = MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Error("empty MeanStd should be 0,0")
	}
}
