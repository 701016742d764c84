package obs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// This file is the model-decision observability layer: the aggregate
// telemetry behind /modelz (ModelStats, which also keeps the most
// recent model-β records).
//
// SmartPSI's bet (paper §4) is that the per-node choices of model α
// (optimistic vs pessimistic method) and model β (search order) beat
// either fixed strategy. ModelStats scores both from ground truth the
// engine learns for free: a full 2×2 confusion matrix and vote-margin
// calibration for model α (each evaluation labels its node, §4.2.1),
// and for model β how often the predicted plan is the training sweep's
// fastest (§4.2.2).

// DecisionKindBeta is the kind of a model-β record: the plan predicted
// for a training node, scored against the node's per-plan sweep.
const DecisionKindBeta = "beta"

// DecisionRecord is one scored model-β prediction, as
// /modelz?format=json lists it among the recent ones.
type DecisionRecord struct {
	// Kind is DecisionKindBeta.
	Kind string `json:"kind"`
	// Query names the originating query (the profile name).
	Query string `json:"query,omitempty"`
	// RequestID is the serving-layer X-Request-ID that produced this
	// decision, when the query arrived through psi-serve.
	RequestID string `json:"request_id,omitempty"`
	// Fingerprint is the query's canonical shape fingerprint (the
	// /queryz grouping key), letting a record be pivoted by workload
	// shape.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Node is the scored training node.
	Node int64 `json:"node"`
	// PredPlan is model β's plan choice.
	PredPlan int `json:"pred_plan"`
	// Top1 is true when the predicted plan was the sweep's fastest.
	Top1 bool `json:"top1"`
}

// NumCalibrationBuckets is the vote-margin calibration resolution:
// margin ∈ [0,1] split into equal buckets.
const NumCalibrationBuckets = 5

// CalibrationBucketIndex maps a vote margin to its bucket.
func CalibrationBucketIndex(margin float64) int {
	i := int(margin * NumCalibrationBuckets)
	if i < 0 {
		i = 0
	}
	if i >= NumCalibrationBuckets {
		i = NumCalibrationBuckets - 1
	}
	return i
}

// CalibrationBucket is one vote-margin calibration cell: how often
// predictions with this confidence were right.
type CalibrationBucket struct {
	N       int64 `json:"n"`
	Correct int64 `json:"correct"`
}

// AlphaCells are model α's scored predictions: the confusion matrix and
// the vote-margin calibration. Every scored prediction lands here —
// ground truth is free (§4.2.1: the evaluation itself labels the node).
// The engine's workers tally cells in plain fields and add them to
// /modelz once (ModelStats.AddAlpha).
type AlphaCells struct {
	// Alpha is the confusion matrix [actual][predicted], with 1 = valid
	// (optimistic).
	Alpha [2][2]int64 `json:"alpha_confusion"`
	// Calibration buckets cover margin [i/N, (i+1)/N).
	Calibration [NumCalibrationBuckets]CalibrationBucket `json:"calibration"`
}

// Score folds one model-α prediction (predValid: optimistic) with its
// vote margin against the ground truth.
func (c *AlphaCells) Score(predValid, actualValid bool, margin float64) {
	c.Alpha[boolIdx(actualValid)][boolIdx(predValid)]++
	b := &c.Calibration[CalibrationBucketIndex(margin)]
	b.N++
	if predValid == actualValid {
		b.Correct++
	}
}

// AlphaTotal returns the number of scored model-α predictions.
func (c AlphaCells) AlphaTotal() int64 {
	return c.Alpha[0][0] + c.Alpha[0][1] + c.Alpha[1][0] + c.Alpha[1][1]
}

// AlphaCorrect returns the confusion-matrix diagonal: the predictions
// ground truth confirmed.
func (c AlphaCells) AlphaCorrect() int64 { return c.Alpha[0][0] + c.Alpha[1][1] }

// AlphaAccuracy returns the confusion-matrix diagonal fraction (1.0
// when empty).
func (c AlphaCells) AlphaAccuracy() float64 {
	t := c.AlphaTotal()
	if t == 0 {
		return 1
	}
	return float64(c.AlphaCorrect()) / float64(t)
}

// ModelStats aggregates model-decision telemetry for /modelz. Observe
// also publishes into the Default registry's model-β metrics, so
// /metrics and /modelz stay consistent from a single call site. Methods
// are nil-safe.
type ModelStats struct {
	mu    sync.Mutex
	alpha AlphaCells
	// betaObserved counts model-β predictions scored against a training
	// sweep; betaTop1 those that picked the sweep's fastest plan.
	betaObserved, betaTop1 int64
	// recent is a ring of the last RecentDecisions records; next is the
	// slot the next record fills, so recent[next:] then recent[:next] is
	// oldest first.
	recent []DecisionRecord
	next   int
}

// RecentDecisions bounds the model-β records a ModelStats retains for
// /modelz?format=json's "recent" list.
const RecentDecisions = 512

// DefaultModelStats is the process-wide aggregate served at /modelz.
var DefaultModelStats = &ModelStats{}

// AddAlpha adds a batch of scored model-α predictions, under one lock.
func (m *ModelStats) AddAlpha(c AlphaCells) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for a := range c.Alpha {
		for p, n := range c.Alpha[a] {
			m.alpha.Alpha[a][p] += n
		}
	}
	for i, b := range c.Calibration {
		m.alpha.Calibration[i].N += b.N
		m.alpha.Calibration[i].Correct += b.Correct
	}
}

// Observe folds one model-β record into the aggregates and retains it
// among the recent ones /modelz serves.
func (m *ModelStats) Observe(rec DecisionRecord) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.betaObserved++
	SmartBetaRankChecks.Inc()
	if rec.Top1 {
		m.betaTop1++
		SmartBetaRankTop1.Inc()
	}
	if len(m.recent) < RecentDecisions {
		m.recent = append(m.recent, rec)
	} else {
		m.recent[m.next] = rec
	}
	m.next = (m.next + 1) % RecentDecisions
}

// Reset zeroes the aggregate (tests only; the registry metrics are
// reset separately via Registry.Reset).
func (m *ModelStats) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.alpha = AlphaCells{}
	m.betaObserved, m.betaTop1 = 0, 0
	m.recent, m.next = nil, 0
	m.mu.Unlock()
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ModelStatsData is a point-in-time ModelStats snapshot: plain data,
// JSON-ready, and the input of the /modelz text renderer.
type ModelStatsData struct {
	AlphaCells
	// BetaObserved counts model-β predictions scored against a training
	// sweep; BetaTop1 those that picked the sweep's fastest plan.
	BetaObserved int64 `json:"beta_observed"`
	BetaTop1     int64 `json:"beta_top1"`
	// Recent are the last retained model-β records, oldest first.
	Recent []DecisionRecord `json:"recent,omitempty"`
}

// Snapshot captures the aggregate's current state.
func (m *ModelStats) Snapshot() ModelStatsData {
	var d ModelStatsData
	if m == nil {
		return d
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d.AlphaCells = m.alpha
	d.BetaObserved, d.BetaTop1 = m.betaObserved, m.betaTop1
	d.Recent = append(append([]DecisionRecord(nil), m.recent[m.next:]...), m.recent[:m.next]...)
	return d
}

// WriteText renders the /modelz report.
func (d ModelStatsData) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "model-decision observability (/modelz?format=json for JSON)\n\n")

	fmt.Fprintf(&buf, "model α (node type, §4.2) — confusion matrix, %d scored predictions\n", d.AlphaTotal())
	fmt.Fprintf(&buf, "  %-16s  %12s  %12s\n", "", "pred-invalid", "pred-valid")
	fmt.Fprintf(&buf, "  %-16s  %12d  %12d\n", "actual-invalid", d.Alpha[0][0], d.Alpha[0][1])
	fmt.Fprintf(&buf, "  %-16s  %12d  %12d\n", "actual-valid", d.Alpha[1][0], d.Alpha[1][1])
	fmt.Fprintf(&buf, "  accuracy %.4f", d.AlphaAccuracy())
	if pv := d.Alpha[0][1] + d.Alpha[1][1]; pv > 0 {
		fmt.Fprintf(&buf, "  precision(valid) %.4f", float64(d.Alpha[1][1])/float64(pv))
	}
	if av := d.Alpha[1][0] + d.Alpha[1][1]; av > 0 {
		fmt.Fprintf(&buf, "  recall(valid) %.4f", float64(d.Alpha[1][1])/float64(av))
	}
	fmt.Fprintf(&buf, "\n\n")

	fmt.Fprintf(&buf, "vote-margin calibration (forest margin → empirical accuracy)\n")
	fmt.Fprintf(&buf, "  %-12s  %10s  %10s\n", "margin", "n", "accuracy")
	for i, b := range d.Calibration {
		lo := float64(i) / NumCalibrationBuckets
		hi := float64(i+1) / NumCalibrationBuckets
		acc := "-"
		if b.N > 0 {
			acc = fmt.Sprintf("%.4f", float64(b.Correct)/float64(b.N))
		}
		fmt.Fprintf(&buf, "  [%.1f,%.1f)    %10d  %10s\n", lo, hi, b.N, acc)
	}
	fmt.Fprintf(&buf, "\n")

	fmt.Fprintf(&buf, "model β (plan choice, §4.2) — predicted plan vs training sweeps: %d observed", d.BetaObserved)
	if d.BetaObserved > 0 {
		fmt.Fprintf(&buf, ", top-1 %.3f (in-sample: the sweep nodes β was fitted on)", float64(d.BetaTop1)/float64(d.BetaObserved))
	}
	fmt.Fprintf(&buf, "\n")
	if len(d.Recent) > 0 {
		fmt.Fprintf(&buf, "recent model-β records retained: %d (listed as \"recent\" in the JSON)\n", len(d.Recent))
	}
	_, err := w.Write(buf.Bytes())
	return err
}
