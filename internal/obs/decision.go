package obs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// This file is the model-decision observability layer: the aggregate
// telemetry behind /modelz.
//
// SmartPSI's bet (paper §4) is that the per-node choices of model α
// (optimistic vs pessimistic method) and model β (search order) beat
// either fixed strategy. /modelz scores both from ground truth the
// engine learns for free: a full 2×2 confusion matrix for model α (each
// evaluation labels its node, §4.2.1), and for model β how often the
// predicted plan is the training sweep's fastest (§4.2.2). Model β's
// tally is counted once, in smartpsi_beta_rank_{checks,top1}_total,
// and each query's own share is in its profile.

// AlphaCells are model α's scored predictions: the confusion matrix.
// Every scored prediction lands here — ground truth is free (§4.2.1:
// the evaluation itself labels the node). The engine's workers tally
// cells in plain fields and add them to /modelz once
// (ModelStats.AddAlpha).
type AlphaCells struct {
	// Alpha is the confusion matrix [actual][predicted], with 1 = valid
	// (optimistic).
	Alpha [2][2]int64 `json:"alpha_confusion"`
}

// Score folds one model-α prediction (predValid: optimistic) against
// the ground truth.
func (c *AlphaCells) Score(predValid, actualValid bool) {
	c.Alpha[boolIdx(actualValid)][boolIdx(predValid)]++
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

// ModelStats aggregates model α's confusion for /modelz. Methods are
// nil-safe.
type ModelStats struct {
	mu    sync.Mutex
	alpha AlphaCells
}

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
}

// Reset zeroes the aggregate (tests only; model β's counters are reset
// with the registry, Registry.Reset).
func (m *ModelStats) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.alpha = AlphaCells{}
	m.mu.Unlock()
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ModelStatsData is a point-in-time /modelz reading: plain data,
// JSON-ready, and the input of the /modelz text renderer.
type ModelStatsData struct {
	AlphaCells
	// BetaObserved counts model-β predictions scored against a training
	// sweep; BetaTop1 those that picked the sweep's fastest plan.
	BetaObserved int64 `json:"beta_observed"`
	BetaTop1     int64 `json:"beta_top1"`
}

// Snapshot captures model α's aggregate and model β's counters.
func (m *ModelStats) Snapshot() ModelStatsData {
	d := ModelStatsData{BetaObserved: SmartBetaRankChecks.Value(), BetaTop1: SmartBetaRankTop1.Value()}
	if m == nil {
		return d
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d.AlphaCells = m.alpha
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

	fmt.Fprintf(&buf, "model β (plan choice, §4.2) — predicted plan vs training sweeps: %d observed", d.BetaObserved)
	if d.BetaObserved > 0 {
		fmt.Fprintf(&buf, ", top-1 %.3f (in-sample: the sweep nodes β was fitted on)", float64(d.BetaTop1)/float64(d.BetaObserved))
	}
	fmt.Fprintf(&buf, "\n")
	_, err := w.Write(buf.Bytes())
	return err
}
